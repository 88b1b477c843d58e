"""The whole-program model behind the RPR2xx and interprocedural rules.

A :class:`ProjectModel` is built once per ``repro lint`` run from the
already-parsed :class:`~repro.analysis.engine.FileContext` objects.  It
holds, per module:

* a **symbol table** — the file's import table (``FileContext.imports``,
  shared with the per-file rules), module functions, classes and their
  methods;
* a **call graph** — every call site, classified once by the hazard
  catalogue (:mod:`repro.analysis.hazards`), resolved where possible to the
  project-level qualname of its callee (``pkg.mod.Class.method`` or
  ``pkg.mod.func``), including ``self.m()`` dispatch, constructor calls
  (``ClassName(...)`` resolves to ``__init__``) and attribute calls on
  receivers whose class is known from annotations or constructor
  assignments;
* a **thread/lock model** — ``threading.Thread(target=...)`` spawn
  sites (and ``Thread`` subclasses, whose ``run`` is an entry point),
  lock attributes per class with ``Condition(lock)`` aliasing, the set
  of locks *lexically* held at every statement, and two call-graph
  fixpoints per function: the locks **must**-held at entry (intersection
  over call edges — this is what makes the repo's ``_locked``-suffix
  convention analyzable) and the locks that **may** be held at entry
  (union over call edges — what makes hazard rules like RPR203 sound
  for helpers only ever called under a lock).

Model-level rules (:class:`~repro.analysis.engine.ModelRuleLike`)
receive the finished model and emit findings with an optional ``trace``
of call-graph hops.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .engine import FileContext
from .hazards import blocking_kind, bounded, call_target, dotted_name

__all__ = [
    "AttrMutation",
    "CallSite",
    "CheckThenAct",
    "ClassInfo",
    "FunctionInfo",
    "LockAcquire",
    "ModuleInfo",
    "ProjectModel",
    "ThreadSpawn",
]

#: resolved constructor -> lock kind; a Condition aliases the lock it wraps
_LOCK_CTORS = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "cond",
}

#: method names that mutate their receiver in place
MUTATOR_METHODS = frozenset(
    {
        "append", "add", "update", "pop", "popitem", "clear", "extend",
        "remove", "discard", "setdefault", "insert", "appendleft", "popleft",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    name: str  #: callee as written, dotted (``self._bump``, ``time.sleep``)
    line: int
    col: int
    locks: frozenset[str]  #: lock ids lexically held at the call
    kind: str | None  #: blocking kind from the hazard catalogue, if any
    bounded: bool  #: its arguments bound the wait (``hazards.bounded``)
    in_loop: bool


@dataclass(frozen=True)
class AttrMutation:
    """A write to ``self.<attr>`` (assign/augassign/subscript/mutator call)."""

    attr: str
    line: int
    col: int
    locks: frozenset[str]
    kind: str  #: ``assign`` | ``augassign`` | ``subscript`` | ``call``


@dataclass(frozen=True)
class LockAcquire:
    """A ``with <lock>:`` acquisition."""

    lock: str
    line: int
    col: int
    held_before: frozenset[str]  #: locks lexically held when acquiring


@dataclass(frozen=True)
class ThreadSpawn:
    """A ``threading.Thread(target=...)`` construction site."""

    target: str | None  #: the ``target=`` expression, dotted, as written
    line: int
    col: int
    daemon: bool  #: a ``daemon=`` keyword was given (any value)
    assigned_to: str | None  #: dotted assignment target, if directly assigned
    in_loop: bool
    resolved: str | None = None  #: qualname of the target (link pass)


@dataclass(frozen=True)
class CheckThenAct:
    """An ``if``/``while`` whose test reads ``self.<attr>`` and whose
    body mutates the same attribute — atomic only under a lock."""

    attr: str
    line: int
    col: int
    locks: frozenset[str]  #: locks lexically held at the test


@dataclass
class FunctionInfo:
    """One function or method, with everything the rules need."""

    qualname: str
    module: str
    cls: str | None  #: owning class qualname, None for module functions
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    calls: list[CallSite] = field(default_factory=list)
    mutations: list[AttrMutation] = field(default_factory=list)
    acquires: list[LockAcquire] = field(default_factory=list)
    spawns: list[ThreadSpawn] = field(default_factory=list)
    check_then_acts: list[CheckThenAct] = field(default_factory=list)
    local_types: dict[str, str] = field(default_factory=dict)
    joins: list[str] = field(default_factory=list)  #: receivers of ``.join()``


@dataclass
class ClassInfo:
    """One class: methods, lock attributes, attribute types."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> canonical lock id; Condition(lock) aliases its lock
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> project class qualname, where inferable
    attr_types: dict[str, str] = field(default_factory=dict)
    is_thread_subclass: bool = False


@dataclass
class ModuleInfo:
    """One parsed module; its import table is ``ctx.imports``."""

    name: str
    path: str
    ctx: FileContext
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


class ProjectModel:
    """Symbol table + call graph + thread/lock model for one lint run."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: caller qualname -> [(callee qualname, call site)]
        self.call_graph: dict[str, list[tuple[str, CallSite]]] = {}
        #: qualname -> spawn sites whose target resolved to it
        self.thread_entries: dict[str, list[ThreadSpawn]] = {}
        self._may_entry: dict[str, frozenset[str]] | None = None

    # ------------------------------------------------------------- build
    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectModel":
        model = cls()
        for ctx in contexts:
            info = _collect_module(ctx)
            model.modules[info.name] = info
            model.functions.update(
                {f.qualname: f for f in _iter_functions(info)}
            )
            for klass in info.classes.values():
                model.classes[klass.qualname] = klass
        model._link()
        return model

    # -------------------------------------------------------- resolution
    def resolve_name(self, module: str, name: str) -> str:
        """Fully resolve a dotted name through the module's import table
        (``np.random.default_rng`` -> ``numpy.random.default_rng``)."""
        info = self.modules.get(module)
        return name if info is None else info.ctx.imports.resolve(name)

    def resolve_call(
        self, fn: FunctionInfo, name: str
    ) -> str | None:
        """Qualname of the project function a call expression refers to."""
        parts = name.split(".")
        info = self.modules.get(fn.module)
        if info is None:
            return None
        if parts[0] == "self" and fn.cls is not None:
            if len(parts) == 2:
                return self._class_method(fn.cls, parts[1])
            if len(parts) == 3:  # self.attr.meth() via the attr's type
                attr_cls = self._attr_class(fn.module, fn.cls, parts[1])
                if attr_cls is not None:
                    return self._class_method(attr_cls, parts[2])
            return None
        if parts[0] in fn.local_types:
            local_cls = self._resolve_class(fn.module, fn.local_types[parts[0]])
            if local_cls is None:
                return None
            if len(parts) == 2:
                return self._class_method(local_cls, parts[1])
            if len(parts) == 3:
                attr_cls = self._attr_class(fn.module, local_cls, parts[1])
                if attr_cls is not None:
                    return self._class_method(attr_cls, parts[2])
            return None
        resolved = self.resolve_name(fn.module, name)
        return self._lookup(resolved, info)

    def _resolve_class(self, module: str, name: str) -> str | None:
        """Project class qualname for a class name as written in ``module``."""
        if name in self.classes:
            return name
        resolved = self.resolve_name(module, name)
        if resolved in self.classes:
            return resolved
        local = f"{module}.{name}"
        return local if local in self.classes else None

    def _attr_class(
        self, module: str, cls_qualname: str, attr: str
    ) -> str | None:
        klass = self.classes.get(cls_qualname)
        if klass is None:
            return None
        raw = klass.attr_types.get(attr)
        if raw is None:
            return None
        return self._resolve_class(klass.module, raw)

    def _lookup(self, dotted: str, info: ModuleInfo) -> str | None:
        """Find a function/class constructor for a fully-resolved name."""
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:
            return self._class_method(dotted, "__init__")
        # same-module shorthand: bare function/class name
        local = f"{info.name}.{dotted}"
        if local in self.functions:
            return local
        if local in self.classes:
            return self._class_method(local, "__init__")
        return None

    def _class_method(self, cls_qualname: str, method: str) -> str | None:
        """Method lookup walking project-local base classes."""
        seen: set[str] = set()
        queue = [cls_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            klass = self.classes.get(current)
            if klass is None:
                continue
            if method in klass.methods:
                return klass.methods[method].qualname
            for base in klass.bases:
                resolved = self.resolve_name(klass.module, base)
                if resolved in self.classes:
                    queue.append(resolved)
                elif f"{klass.module}.{base}" in self.classes:
                    queue.append(f"{klass.module}.{base}")
        return None

    # ---------------------------------------------------------- linking
    def _link(self) -> None:
        for fn in self.functions.values():
            edges: list[tuple[str, CallSite]] = []
            for site in fn.calls:
                callee = self.resolve_call(fn, site.name)
                if callee is not None:
                    edges.append((callee, site))
            if edges:
                self.call_graph[fn.qualname] = edges
            for idx, spawn in enumerate(fn.spawns):
                if spawn.target is None:
                    continue
                resolved = self.resolve_call(fn, spawn.target)
                if resolved is not None:
                    linked = ThreadSpawn(
                        target=spawn.target,
                        line=spawn.line,
                        col=spawn.col,
                        daemon=spawn.daemon,
                        assigned_to=spawn.assigned_to,
                        in_loop=spawn.in_loop,
                        resolved=resolved,
                    )
                    fn.spawns[idx] = linked
                    self.thread_entries.setdefault(resolved, []).append(linked)
        for klass in self.classes.values():
            if klass.is_thread_subclass and "run" in klass.methods:
                run = klass.methods["run"]
                spawn = ThreadSpawn(
                    target=f"{klass.name}.run",
                    line=run.node.lineno,
                    col=run.node.col_offset,
                    daemon=True,  # subclass lifetime is the author's call
                    assigned_to=None,
                    in_loop=False,
                    resolved=run.qualname,
                )
                self.thread_entries.setdefault(run.qualname, []).append(spawn)

    # ------------------------------------------------------- reachability
    def call_path(self, src: str, dst: str, limit: int = 8) -> list[str]:
        """Shortest call-graph path ``src -> ... -> dst`` (both included)."""
        if src == dst:
            return [src]
        parents: dict[str, str] = {}
        queue = deque([(src, 0)])
        seen = {src}
        while queue:
            current, depth = queue.popleft()
            if depth >= limit:
                continue
            for callee in sorted({c for c, _ in self.call_graph.get(current, [])}):
                if callee in seen:
                    continue
                seen.add(callee)
                parents[callee] = current
                if callee == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                queue.append((callee, depth + 1))
        return []

    def may_entry_locks(self) -> dict[str, frozenset[str]]:
        """Locks that *may* be held when each function is entered — a
        union fixpoint over the whole call graph (monotone, so a simple
        worklist converges)."""
        if self._may_entry is not None:
            return self._may_entry
        may: dict[str, frozenset[str]] = {q: frozenset() for q in self.functions}
        changed = True
        while changed:
            changed = False
            for caller, edges in self.call_graph.items():
                base = may.get(caller, frozenset())
                for callee, site in edges:
                    incoming = base | site.locks
                    if not incoming <= may.get(callee, frozenset()):
                        may[callee] = may.get(callee, frozenset()) | incoming
                        changed = True
        self._may_entry = may
        return may

    def must_entry_locks(
        self, roots: Iterable[str], members: Iterable[str]
    ) -> dict[str, frozenset[str]]:
        """Locks *guaranteed* held at entry for each ``member``, when the
        call graph is entered only through ``roots`` (entered lock-free).

        Intersection fixpoint, initialised to TOP so mutually-recursive
        helpers (``_dispatch_locked`` <-> ``_on_lost_locked``) converge to
        the locks their non-recursive callers actually hold.
        """
        member_set = set(members)
        universe: set[str] = set()
        for qualname in member_set:
            fn = self.functions.get(qualname)
            if fn is None:
                continue
            for acquire in fn.acquires:
                universe.add(acquire.lock)
            for site in fn.calls:
                universe.update(site.locks)
        top = frozenset(universe)
        root_set = set(roots) & member_set
        must = {q: (frozenset() if q in root_set else top) for q in member_set}
        changed = True
        while changed:
            changed = False
            for caller in member_set:
                for callee, site in self.call_graph.get(caller, []):
                    if callee not in member_set or callee in root_set:
                        continue
                    candidate = must[caller] | site.locks
                    narrowed = must[callee] & candidate
                    if narrowed != must[callee]:
                        must[callee] = narrowed
                        changed = True
        return must


# ---------------------------------------------------------------- collect
def _iter_functions(info: ModuleInfo) -> Iterable[FunctionInfo]:
    yield from info.functions.values()
    for klass in info.classes.values():
        yield from klass.methods.values()


def _collect_module(ctx: FileContext) -> ModuleInfo:
    name = ctx.module
    info = ModuleInfo(name=name, path=ctx.path, ctx=ctx)
    assert isinstance(ctx.tree, ast.Module)
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FunctionInfo(
                qualname=f"{name}.{stmt.name}",
                module=name,
                cls=None,
                name=stmt.name,
                node=stmt,
                path=ctx.path,
            )
            _scan_function(fn, info, klass=None)
            info.functions[stmt.name] = fn
        elif isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = _collect_class(info, stmt)
    return info


def _collect_class(info: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    qualname = f"{info.name}.{node.name}"
    klass = ClassInfo(
        qualname=qualname,
        name=node.name,
        module=info.name,
        path=info.path,
        node=node,
    )
    for base in node.bases:
        base_name = dotted_name(base)
        if base_name is not None:
            klass.bases.append(base_name)
            resolved = base_name
            if resolved in ("Thread", "threading.Thread"):
                klass.is_thread_subclass = True
    # pre-pass: lock attributes and attribute types, before body scans
    _collect_class_attrs(info, klass, node)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FunctionInfo(
                qualname=f"{qualname}.{stmt.name}",
                module=info.name,
                cls=qualname,
                name=stmt.name,
                node=stmt,
                path=info.path,
            )
            _scan_function(fn, info, klass)
            klass.methods[stmt.name] = fn
    return klass


def _lock_ctor_kind(info: ModuleInfo, call: ast.Call) -> str | None:
    """'lock' for Lock/RLock calls, 'cond' for Condition, else None."""
    return _LOCK_CTORS.get(call_target(call, info.ctx.imports))


def _collect_class_attrs(
    info: ModuleInfo, klass: ClassInfo, node: ast.ClassDef
) -> None:
    """Find ``self.X = Lock()`` style lock attrs (with Condition
    aliasing) and ``self.X = SomeClass(...)`` / annotation types."""
    pending_conds: list[tuple[str, ast.Call]] = []
    for stmt in node.body:  # dataclass-style annotations
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ann = dotted_name(stmt.annotation)
            if ann is not None:
                klass.attr_types[stmt.target.id] = ann
    for method in [
        s for s in node.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]:
        for sub in ast.walk(method):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value = sub.target, sub.value
                ann = dotted_name(sub.annotation)
                if (
                    ann is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    klass.attr_types[target.attr] = ann
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            if isinstance(value, ast.Call):
                kind = _lock_ctor_kind(info, value)
                if kind == "lock":
                    klass.lock_attrs[attr] = f"{klass.qualname}.{attr}"
                elif kind == "cond":
                    pending_conds.append((attr, value))
                else:
                    ctor = dotted_name(value.func)
                    if ctor is not None:
                        klass.attr_types.setdefault(attr, ctor)
    for attr, call in pending_conds:
        alias: str | None = None
        if call.args:
            arg_name = dotted_name(call.args[0])
            if arg_name is not None and arg_name.startswith("self."):
                aliased_attr = arg_name.split(".", 1)[1]
                alias = klass.lock_attrs.get(aliased_attr)
        klass.lock_attrs[attr] = alias or f"{klass.qualname}.{attr}"


# ----------------------------------------------------------- body scanner
class _FunctionScanner:
    """Single-pass body walk tracking lexically held locks."""

    def __init__(
        self, fn: FunctionInfo, info: ModuleInfo, klass: ClassInfo | None
    ) -> None:
        self.fn = fn
        self.info = info
        self.klass = klass
        self.held: tuple[str, ...] = ()
        self.loop_depth = 0

    # -- lock identity -------------------------------------------------
    def _lock_id(self, expr: ast.expr) -> str | None:
        name = dotted_name(expr)
        if name is None:
            return None
        if name.startswith("self.") and self.klass is not None:
            attr = name.split(".", 1)[1]
            return self.klass.lock_attrs.get(attr)
        if "." not in name and name in self.fn.local_types:
            if self.fn.local_types[name] == "__lock__":
                return f"{self.fn.qualname}.{name}"
        return None

    def _held(self) -> frozenset[str]:
        return frozenset(self.held)

    # -- entry ----------------------------------------------------------
    def scan(self) -> None:
        for arg in [
            *self.fn.node.args.posonlyargs,
            *self.fn.node.args.args,
            *self.fn.node.args.kwonlyargs,
        ]:
            if arg.annotation is not None:
                ann = dotted_name(arg.annotation)
                if ann is not None:
                    self.fn.local_types[arg.arg] = ann
        for stmt in self.fn.node.body:
            self._stmt(stmt)

    # -- statements ------------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are their own scope; lambdas stay inline
        if isinstance(stmt, ast.With):
            acquired: list[str] = []
            for item in stmt.items:
                self._expr(item.context_expr)
                lock = self._lock_id(item.context_expr)
                if lock is not None:
                    self.fn.acquires.append(
                        LockAcquire(
                            lock=lock,
                            line=item.context_expr.lineno,
                            col=item.context_expr.col_offset,
                            held_before=self._held(),
                        )
                    )
                    acquired.append(lock)
                    self.held = (*self.held, lock)
            for inner in stmt.body:
                self._stmt(inner)
            if acquired:
                self.held = self.held[: len(self.held) - len(acquired)]
            return
        if isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.While):
                self._check_then_act(stmt.test, stmt.body, stmt)
                self._expr(stmt.test)
            else:
                self._expr(stmt.iter)
            self.loop_depth += 1
            for inner in stmt.body:
                self._stmt(inner)
            self.loop_depth -= 1
            for inner in stmt.orelse:
                self._stmt(inner)
            return
        if isinstance(stmt, ast.If):
            self._check_then_act(stmt.test, stmt.body, stmt)
            self._expr(stmt.test)
            for inner in stmt.body:
                self._stmt(inner)
            for inner in stmt.orelse:
                self._stmt(inner)
            return
        if isinstance(stmt, ast.Try):
            for inner in stmt.body:
                self._stmt(inner)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._stmt(inner)
            for inner in stmt.orelse:
                self._stmt(inner)
            for inner in stmt.finalbody:
                self._stmt(inner)
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_value(stmt.target, stmt.value)
            if stmt.value is not None:
                self._expr(stmt.value)
            self._mutation_target(stmt.target, "assign")
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            self._mutation_target(stmt.target, "augassign")
            return
        if isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._expr(stmt.value)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._mutation_target(target, "assign")
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child)

    def _assign(self, stmt: ast.Assign) -> None:
        # record bindings first so the expression walk's thread-spawn
        # dedup sees the assigned_to-carrying record, not the other way
        for target in stmt.targets:
            self._record_value(target, stmt.value)
        self._expr(stmt.value)
        for target in stmt.targets:
            self._mutation_target(target, "assign")

    def _record_value(self, target: ast.expr, value: ast.expr) -> None:
        """Track local/thread/lock bindings from an assignment."""
        target_name = dotted_name(target)
        if not isinstance(value, ast.Call):
            return
        spawn = self._thread_spawn(value, target_name)
        if spawn is not None:
            self.fn.spawns.append(spawn)
            return
        if target_name is not None and "." not in target_name:
            kind = _lock_ctor_kind(self.info, value)
            if kind is not None:
                self.fn.local_types[target_name] = "__lock__"
                return
            ctor = dotted_name(value.func)
            if ctor is not None:
                self.fn.local_types.setdefault(target_name, ctor)

    def _mutation_target(self, target: ast.expr, kind: str) -> None:
        if self.klass is None:
            return
        node: ast.expr = target
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                self._mutation_target(element, kind)
            return
        actual_kind = kind
        if isinstance(node, ast.Subscript):
            actual_kind = "subscript" if kind == "assign" else kind
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            self.fn.mutations.append(
                AttrMutation(
                    attr=node.attr,
                    line=target.lineno,
                    col=target.col_offset,
                    locks=self._held(),
                    kind=actual_kind,
                )
            )

    def _check_then_act(
        self, test: ast.expr, body: list[ast.stmt], stmt: ast.stmt
    ) -> None:
        read = _self_attrs_read(test)
        if not read:
            return
        written = _self_attrs_written(body)
        for attr in sorted(read & written):
            self.fn.check_then_acts.append(
                CheckThenAct(
                    attr=attr,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    locks=self._held(),
                )
            )

    # -- expressions -----------------------------------------------------
    def _expr(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            spawn = self._thread_spawn(node, None)
            if spawn is not None and not any(
                s.line == node.lineno and s.col == node.col_offset
                for s in self.fn.spawns
            ):
                self.fn.spawns.append(spawn)
                continue
            if name.endswith(".join"):
                receiver = name.rsplit(".", 1)[0]
                if receiver not in self.fn.joins:
                    self.fn.joins.append(receiver)
            target = self.info.ctx.imports.resolve(name)
            self.fn.calls.append(
                CallSite(
                    name=name,
                    line=node.lineno,
                    col=node.col_offset,
                    locks=self._held(),
                    kind=blocking_kind(target),
                    bounded=bounded(node, target),
                    in_loop=self.loop_depth > 0,
                )
            )

    def _thread_spawn(
        self, call: ast.Call, assigned_to: str | None
    ) -> ThreadSpawn | None:
        if call_target(call, self.info.ctx.imports) != "threading.Thread":
            return None
        target: str | None = None
        daemon = False
        for kw in call.keywords:
            if kw.arg == "target":
                target = dotted_name(kw.value)
            elif kw.arg == "daemon":
                daemon = True
        return ThreadSpawn(
            target=target,
            line=call.lineno,
            col=call.col_offset,
            daemon=daemon,
            assigned_to=assigned_to,
            in_loop=self.loop_depth > 0,
        )


def _self_attrs_read(expr: ast.expr) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
    return out


def _self_attrs_written(body: list[ast.stmt]) -> set[str]:
    out: set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                base = target
                if isinstance(base, ast.Subscript):
                    base = base.value
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                ):
                    out.add(base.attr)
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name is not None
                    and name.startswith("self.")
                    and name.count(".") == 2
                    and name.rsplit(".", 1)[1] in MUTATOR_METHODS
                ):
                    out.add(name.split(".")[1])
    return out


def _scan_function(
    fn: FunctionInfo, info: ModuleInfo, klass: ClassInfo | None
) -> None:
    _FunctionScanner(fn, info, klass).scan()
