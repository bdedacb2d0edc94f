"""Generic IR utilities: traversal, functional update, substitution, renaming.

These helpers are the workhorses behind scheduling primitives.  The IR is
treated as an immutable tree: every "mutation" builds a new tree sharing
unchanged sub-trees with the old one, which is what makes cheap provenance /
forwarding possible.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import nodes as N
from .syms import Sym
from .types import ScalarType, TensorType

__all__ = [
    "Path",
    "get_node",
    "get_parent_and_step",
    "set_node",
    "replace_stmts",
    "map_exprs",
    "map_stmts",
    "walk",
    "walk_exprs",
    "walk_stmts",
    "subst_expr",
    "subst_stmts",
    "substitute_reads",
    "rename_sym_in_stmts",
    "copy_node",
    "copy_stmts",
    "alpha_rename_stmts",
    "struct_hash",
    "proc_identity",
    "structurally_equal",
    "collect_syms_read",
    "collect_syms_written",
    "collect_allocs",
    "used_syms_expr",
    "contains_sym",
    "stmt_list_field_paths",
    "is_stmt",
    "is_expr",
]

# A path step is (field_name, index or None); a Path is a tuple of steps.
Step = Tuple[str, Optional[int]]
Path = Tuple[Step, ...]


def is_stmt(node) -> bool:
    return isinstance(node, N.Stmt)


def is_expr(node) -> bool:
    return isinstance(node, N.Expr)


# ---------------------------------------------------------------------------
# Path-based access and functional update
# ---------------------------------------------------------------------------


def get_node(root: N.Node, path: Path) -> N.Node:
    """Return the node addressed by ``path`` starting from ``root``."""
    node = root
    for attr, idx in path:
        child = getattr(node, attr)
        if idx is None:
            node = child
        else:
            node = child[idx]
    return node


def get_parent_and_step(root: N.Node, path: Path) -> Tuple[N.Node, Step]:
    """Return the parent node of the node at ``path`` and the final step."""
    if not path:
        raise ValueError("the root node has no parent")
    return get_node(root, path[:-1]), path[-1]


def _shallow_copy(node: N.Node) -> N.Node:
    """Shallow-copy a dataclass node (lists are copied one level deep)."""
    kwargs = {}
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        kwargs[f.name] = list(v) if isinstance(v, list) else v
    return type(node)(**kwargs)


def set_node(root: N.Node, path: Path, new_node) -> N.Node:
    """Functionally replace the node at ``path`` with ``new_node``.

    Returns a new root; every node on the path is shallow-copied, everything
    else is shared with the input tree.
    """
    if not path:
        return new_node
    (attr, idx), rest = path[0], path[1:]
    copy = _shallow_copy(root)
    child = getattr(copy, attr)
    if idx is None:
        setattr(copy, attr, set_node(child, rest, new_node))
    else:
        child = list(child)
        child[idx] = set_node(child[idx], rest, new_node)
        setattr(copy, attr, child)
    return copy


def replace_stmts(
    root: N.Node,
    block_path: Path,
    attr: str,
    lo: int,
    n_old: int,
    new_stmts: Sequence[N.Stmt],
) -> N.Node:
    """Replace ``n_old`` statements starting at index ``lo`` of the statement
    list ``attr`` of the node at ``block_path`` with ``new_stmts``."""
    parent = get_node(root, block_path)
    stmts = list(getattr(parent, attr))
    stmts[lo : lo + n_old] = list(new_stmts)
    new_parent = _shallow_copy(parent)
    setattr(new_parent, attr, stmts)
    return set_node(root, block_path, new_parent)


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------


def walk(node: N.Node, path: Path = ()) -> Iterator[Tuple[N.Node, Path]]:
    """Yield every node in the subtree (pre-order) together with its path."""
    yield node, path
    for attr, is_list in N.child_fields(node):
        child = getattr(node, attr)
        if is_list:
            for i, c in enumerate(child):
                yield from walk(c, path + ((attr, i),))
        elif child is not None:
            yield from walk(child, path + ((attr, None),))


def walk_stmts(node: N.Node, path: Path = ()) -> Iterator[Tuple[N.Stmt, Path]]:
    for n, p in walk(node, path):
        if isinstance(n, N.Stmt):
            yield n, p


def walk_exprs(node: N.Node, path: Path = ()) -> Iterator[Tuple[N.Expr, Path]]:
    for n, p in walk(node, path):
        if isinstance(n, N.Expr):
            yield n, p


def stmt_list_field_paths(node: N.Node, path: Path = ()) -> Iterator[Tuple[Path, str, List[N.Stmt]]]:
    """Yield every statement-list in the subtree as ``(owner_path, attr, stmts)``."""
    for n, p in walk(node, path):
        for attr in N.LIST_FIELDS.get(type(n), ()):
            yield p, attr, getattr(n, attr)


# ---------------------------------------------------------------------------
# Mapping / substitution
# ---------------------------------------------------------------------------


def map_exprs(node, fn: Callable[[N.Expr], N.Expr]):
    """Rebuild ``node`` applying ``fn`` bottom-up to every expression child."""

    def rec(n):
        if n is None:
            return None
        if isinstance(n, list):
            return [rec(c) for c in n]
        if not isinstance(n, N.Node):
            return n
        copy = _shallow_copy(n)
        for attr, is_list in N.child_fields(n):
            setattr(copy, attr, rec(getattr(n, attr)))
        if isinstance(copy, N.Alloc) and isinstance(copy.typ, TensorType):
            copy.typ = TensorType(
                copy.typ.base, [rec(e) for e in copy.typ.shape], copy.typ.is_window
            )
        if isinstance(copy, N.Expr):
            copy = fn(copy)
        return copy

    return rec(node)


def map_stmts(stmts: Sequence[N.Stmt], fn: Callable[[N.Stmt], Union[N.Stmt, List[N.Stmt], None]]) -> List[N.Stmt]:
    """Rebuild a statement list, applying ``fn`` to each (recursively rebuilt)
    statement.  ``fn`` may return a statement, a list of statements, or
    ``None`` (meaning "keep as is")."""
    out: List[N.Stmt] = []
    for s in stmts:
        s2 = _shallow_copy(s)
        for attr in N.LIST_FIELDS.get(type(s), ()):
            setattr(s2, attr, map_stmts(getattr(s, attr), fn))
        res = fn(s2)
        if res is None:
            out.append(s2)
        elif isinstance(res, list):
            out.extend(res)
        else:
            out.append(res)
    return out


def substitute_reads(node, env: Dict[Sym, N.Expr]):
    """Substitute scalar reads of the symbols in ``env`` with replacement
    expressions (the classic ``s[i ↦ e]`` operation used by primitives)."""

    def repl(e: N.Expr) -> N.Expr:
        if isinstance(e, N.Read) and not e.idx and e.name in env:
            return copy_node(env[e.name])
        return e

    return map_exprs(node, repl)


def subst_expr(expr: N.Expr, env: Dict[Sym, N.Expr]) -> N.Expr:
    return substitute_reads(expr, env)


def subst_stmts(stmts: Sequence[N.Stmt], env: Dict[Sym, N.Expr]) -> List[N.Stmt]:
    return [substitute_reads(s, env) for s in stmts]


def rename_sym_in_stmts(stmts: Sequence[N.Stmt], old: Sym, new: Sym) -> List[N.Stmt]:
    """Rename every occurrence (reads, writes, windows, allocs) of ``old``."""

    def fix_expr(e: N.Expr) -> N.Expr:
        if isinstance(e, (N.Read, N.WindowExpr, N.StrideExpr)) and e.name is old:
            e.name = new
        return e

    def fix_stmt(s: N.Stmt):
        if isinstance(s, (N.Assign, N.Reduce, N.Alloc, N.WindowStmt)) and s.name is old:
            s.name = new
        if isinstance(s, N.For) and s.iter is old:
            s.iter = new
        return s

    new_stmts = [map_exprs(s, fix_expr) for s in stmts]
    return map_stmts(new_stmts, fix_stmt)


# ---------------------------------------------------------------------------
# Copying
# ---------------------------------------------------------------------------


def copy_node(node):
    """Deep-copy an IR subtree (symbols are shared, not renamed)."""
    if node is None:
        return None
    if isinstance(node, list):
        return [copy_node(c) for c in node]
    if not isinstance(node, N.Node):
        return node
    copy = _shallow_copy(node)
    for attr, _is_list in N.child_fields(node):
        setattr(copy, attr, copy_node(getattr(node, attr)))
    # TensorType shapes also hold expressions; copy them so in-place fixes to
    # one copy never leak into another.
    if isinstance(copy, N.Alloc) and isinstance(copy.typ, TensorType):
        copy.typ = TensorType(copy.typ.base, [copy_node(e) for e in copy.typ.shape], copy.typ.is_window)
    return copy


def copy_stmts(stmts: Sequence[N.Stmt]) -> List[N.Stmt]:
    return [copy_node(s) for s in stmts]


def alpha_rename_stmts(stmts: Sequence[N.Stmt]) -> List[N.Stmt]:
    """Deep-copy a statement block, giving fresh identities to every symbol
    *bound inside* the block (loop iterators and allocations).  Free symbols
    are left untouched.  Used by ``unroll_loop``, ``inline`` and friends."""
    new_stmts = copy_stmts(stmts)

    bound: List[Tuple[Sym, Sym]] = []

    def collect(ss):
        for s in ss:
            if isinstance(s, N.For):
                bound.append((s.iter, s.iter.copy()))
                collect(s.body)
            elif isinstance(s, N.If):
                collect(s.body)
                collect(s.orelse)
            elif isinstance(s, N.Alloc):
                bound.append((s.name, s.name.copy()))
            elif isinstance(s, N.WindowStmt):
                bound.append((s.name, s.name.copy()))

    collect(new_stmts)
    for old, new in bound:
        new_stmts = rename_sym_in_stmts(new_stmts, old, new)
    return new_stmts


# ---------------------------------------------------------------------------
# Structural equality & symbol collection
# ---------------------------------------------------------------------------


_NONE_HASH = hash("<none>")


def struct_hash(node) -> int:
    """Structural hash of an IR subtree, memoised on the nodes.

    The hash is *compatible* with :func:`structurally_equal`: trees that are
    structurally equal (under either symbol-comparison mode) always hash
    equally, so differing hashes prove inequality.  Symbols hash by name and
    expression result types are ignored except on allocations, mirroring the
    equality relation.

    The memo is permanent: once a node is hashed its cached value stays valid
    for the node's lifetime.  This rests on the tree-immutability convention —
    in-place mutation is only ever performed on freshly copied nodes, which
    carry no memo (``_shallow_copy`` rebuilds through the constructor), so a
    memoised node is never mutated.  There is deliberately no global epoch to
    invalidate against: the memo is content, not a snapshot, which also makes
    it safe to compute from concurrent threads (the worst race is two threads
    storing the same value).

    Consumers: besides structural-equality pruning, both execution engines
    key their in-process caches on it (through :func:`proc_identity`), and
    the replay cache keys scheduled results on it.
    """
    return _struct_hash(node)


def _struct_hash(v) -> int:
    if v is None:
        return _NONE_HASH
    if isinstance(v, Sym):
        return hash(v.name)
    if isinstance(v, list):
        return hash(tuple(_struct_hash(x) for x in v))
    if isinstance(v, ScalarType):
        return hash(v)
    if isinstance(v, TensorType):
        return hash(
            ("<tensor>", hash(v.base), v.is_window, tuple(_struct_hash(e) for e in v.shape))
        )
    if isinstance(v, N.Node):
        cached = getattr(v, "_shash_cache", None)
        if cached is not None:
            return cached
        parts = [hash(type(v).__name__)]
        for f in dataclasses.fields(v):
            if f.name == "typ" and not isinstance(v, N.Alloc):
                continue
            parts.append(_struct_hash(getattr(v, f.name)))
        h = hash(tuple(parts))
        # plain instance state; never invalidated (see struct_hash's contract)
        v._shash_cache = h
        return h
    try:
        return hash(v)
    except TypeError:
        return id(v)


def proc_identity(root: N.ProcDef) -> Tuple[int, int, int]:
    """What "the same procedure" means to the execution engines:
    ``(struct_hash, alpha signature, argument-type token)``.

    ``struct_hash`` compares symbols by name and ignores ``FnArg`` types, but
    generated code depends on both — how same-named symbols are bound, and
    e.g. a ``size`` argument eliding guards an ``index`` argument keeps, or
    an ``f32`` argument becoming ``float *`` rather than ``double *`` — so
    the two extra components make the identity alpha- and type-exact.  The
    compiled NumPy engine and the native backend's in-process memo both key
    on it.  Memoised on the root permanently, like the structural hash
    (published roots are never mutated in place).
    """
    cached = getattr(root, "_identity_cache", None)
    if cached is None:
        cached = (struct_hash(root), _alias_sig(root), _arg_type_token(root))
        root._identity_cache = cached
    return cached


def _alias_sig(root: N.ProcDef) -> int:
    """Hash of the first-occurrence order of each distinct symbol."""
    first: Dict[Sym, int] = {}

    def key_of(sym: Sym) -> int:
        if sym not in first:
            first[sym] = len(first)
        return first[sym]

    sig: List[int] = []
    for a in root.args:
        sig.append(key_of(a.name))
    for n, _ in walk(root):
        if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr, N.Assign, N.Reduce, N.Alloc, N.WindowStmt)):
            sig.append(key_of(n.name))
        elif isinstance(n, N.For):
            sig.append(key_of(n.iter))
    return hash(tuple(sig))


def _arg_type_token(root: N.ProcDef) -> int:
    """Hash of the declared argument types."""
    parts: List[object] = []
    for a in root.args:
        t = a.typ
        if isinstance(t, TensorType):
            parts.append(("t", t.base.name, t.is_window, tuple(struct_hash(e) for e in t.shape)))
        else:
            parts.append(("s", t.name))
    return hash(tuple(parts))


def structurally_equal(a, b, *, match_sym_names: bool = False) -> bool:
    """Structural equality of IR subtrees.

    Symbols compare by identity unless ``match_sym_names`` is set, in which
    case they compare by name (useful for comparing procedures produced by
    independent scheduling runs).

    Two fast paths avoid re-walking shared subtrees: identical objects are
    equal by definition (the functional-update helpers share unchanged
    subtrees between versions), and memoised structural hashes (see
    :func:`struct_hash`) that differ prove inequality without a field-by-field
    walk.  Hashes are only consulted when already cached — equality never pays
    to compute them — so warming the cache is the caller's choice.
    """
    if a is b:
        return True
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, Sym) and isinstance(b, Sym):
        return (a.name == b.name) if match_sym_names else (a is b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            structurally_equal(x, y, match_sym_names=match_sym_names) for x, y in zip(a, b)
        )
    if isinstance(a, (ScalarType,)) or isinstance(b, (ScalarType,)):
        return a == b
    if isinstance(a, TensorType) and isinstance(b, TensorType):
        return (
            a.base == b.base
            and a.is_window == b.is_window
            and structurally_equal(a.shape, b.shape, match_sym_names=match_sym_names)
        )
    if not isinstance(a, N.Node) or not isinstance(b, N.Node):
        return a == b
    if type(a) is not type(b):
        return False
    ca = getattr(a, "_shash_cache", None)
    if ca is not None:
        cb = getattr(b, "_shash_cache", None)
        if cb is not None and ca != cb:
            return False
    for f in dataclasses.fields(a):
        if f.name in ("typ",) and not isinstance(a, (N.Alloc,)):
            # expression result types are inferred metadata; ignore for
            # structural comparison except on allocations where they matter.
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, Sym) or isinstance(vb, Sym):
            if not (isinstance(va, Sym) and isinstance(vb, Sym)):
                return False
            if not structurally_equal(va, vb, match_sym_names=match_sym_names):
                return False
        elif isinstance(va, (N.Node, list)) or isinstance(vb, (N.Node, list)):
            if not structurally_equal(va, vb, match_sym_names=match_sym_names):
                return False
        elif isinstance(va, (ScalarType, TensorType)) or isinstance(vb, (ScalarType, TensorType)):
            if not structurally_equal(va, vb, match_sym_names=match_sym_names):
                return False
        else:
            if va != vb:
                return False
    return True


def used_syms_expr(expr: N.Expr) -> set:
    """All symbols read by an expression (including window / stride names)."""
    out = set()
    for n, _ in walk(expr):
        if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr)):
            out.add(n.name)
    return out


def contains_sym(node, sym: Sym) -> bool:
    """Does the subtree reference ``sym`` (read, write, window, stride, or as
    a loop iterator)?  Comparison is by identity, like all symbol binding."""
    for n, _ in walk(node):
        if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr, N.Assign, N.Reduce)) and n.name is sym:
            return True
        if isinstance(n, N.For) and n.iter is sym:
            return True
    return False


def collect_syms_read(node) -> set:
    out = set()
    nodes = node if isinstance(node, list) else [node]
    for nd in nodes:
        for n, _ in walk(nd):
            if isinstance(n, (N.Read, N.WindowExpr, N.StrideExpr)):
                out.add(n.name)
            if isinstance(n, (N.Assign, N.Reduce)):
                for e in n.idx:
                    out |= used_syms_expr(e)
            if isinstance(n, N.Reduce):
                out.add(n.name)
    return out


def collect_syms_written(node) -> set:
    out = set()
    nodes = node if isinstance(node, list) else [node]
    for nd in nodes:
        for n, _ in walk(nd):
            if isinstance(n, (N.Assign, N.Reduce)):
                out.add(n.name)
    return out


def collect_allocs(node) -> List[N.Alloc]:
    out = []
    nodes = node if isinstance(node, list) else [node]
    for nd in nodes:
        for n, _ in walk(nd):
            if isinstance(n, N.Alloc):
                out.append(n)
    return out
