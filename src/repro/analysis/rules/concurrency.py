"""Whole-program concurrency rules (RPR201-RPR205).

These rules consume the :class:`~repro.analysis.model.ProjectModel`
rather than a single file: thread entry points come from resolved
``threading.Thread(target=...)`` spawn sites (plus ``Thread``
subclasses), and lock discipline is judged against the locks *held at
function entry* computed by call-graph fixpoints — which is what makes
the repo's ``_locked``-suffix convention (caller holds the lock)
analyzable without annotations.

Per class, methods are partitioned into execution **contexts**: one per
thread entry reaching the method, plus ``main`` for everything callable
from outside.  A context whose spawn site sits in a loop (or that is
spawned from several places) is *multi-instance* — it can race with
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .. import hazards
from ..engine import Finding, ModelRuleLike
from ..model import (
    AttrMutation,
    CallSite,
    ClassInfo,
    FunctionInfo,
    ProjectModel,
    ThreadSpawn,
)

__all__ = [
    "ModelRule",
    "SharedMutationRule",
    "LockOrderCycleRule",
    "BlockingCallUnderLockRule",
    "ThreadLifecycleRule",
    "CheckThenActRule",
    "class_contexts",
]

MAIN_CONTEXT = "main"


class ModelRule(ModelRuleLike):
    """Base class for rules that run over the whole-program model."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check_model(self, model: ProjectModel) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        fn: FunctionInfo,
        line: int,
        col: int,
        message: str,
        trace: tuple[str, ...] = (),
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=fn.path,
            line=line,
            col=col,
            message=message,
            trace=trace,
        )


# ------------------------------------------------------------ class model
@dataclass
class ClassContexts:
    """Execution contexts of one class: who runs what, holding which locks."""

    klass: ClassInfo
    #: context label ("main" or "thread:<method>") -> reachable method names
    reach: dict[str, set[str]]
    #: context label -> method qualname -> locks guaranteed held at entry
    must_entry: dict[str, dict[str, frozenset[str]]]
    #: thread context labels that can race with themselves
    multi_instance: set[str]
    #: thread context label -> root method name
    thread_roots: dict[str, str]


def _intra_class_edges(
    model: ProjectModel, klass: ClassInfo
) -> dict[str, set[str]]:
    prefix = klass.qualname + "."
    edges: dict[str, set[str]] = {}
    for method in klass.methods.values():
        out: set[str] = set()
        for callee, _site in model.call_graph.get(method.qualname, []):
            if callee.startswith(prefix):
                out.add(callee[len(prefix):])
        edges[method.name] = out
    return edges


def _reach(edges: dict[str, set[str]], roots: Iterable[str]) -> set[str]:
    seen = set(roots)
    queue = list(seen)
    while queue:
        current = queue.pop()
        for nxt in edges.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def class_contexts(model: ProjectModel, klass: ClassInfo) -> ClassContexts | None:
    """Contexts for one class, or None when no thread ever enters it."""
    thread_roots: dict[str, str] = {}
    multi_instance: set[str] = set()
    for name, method in klass.methods.items():
        spawns = model.thread_entries.get(method.qualname)
        if not spawns:
            continue
        label = f"thread:{name}"
        thread_roots[label] = name
        if len(spawns) > 1 or any(s.in_loop for s in spawns):
            multi_instance.add(label)
    if not thread_roots:
        return None

    edges = _intra_class_edges(model, klass)
    callers: dict[str, set[str]] = {name: set() for name in klass.methods}
    for src, outs in edges.items():
        for dst in outs:
            callers.setdefault(dst, set()).add(src)

    root_names = set(thread_roots.values())
    main_roots = {
        name
        for name in klass.methods
        if name != "__init__"
        and name not in root_names
        and (not name.startswith("_") or not callers.get(name))
    }

    reach: dict[str, set[str]] = {}
    must_entry: dict[str, dict[str, frozenset[str]]] = {}
    qual = {name: klass.methods[name].qualname for name in klass.methods}

    def solve(label: str, roots: set[str]) -> None:
        members = _reach(edges, roots)
        reach[label] = members
        must = model.must_entry_locks(
            {qual[r] for r in roots}, {qual[m] for m in members}
        )
        must_entry[label] = must

    for label, root in thread_roots.items():
        solve(label, {root})
    if main_roots:
        solve(MAIN_CONTEXT, main_roots)
    return ClassContexts(
        klass=klass,
        reach=reach,
        must_entry=must_entry,
        multi_instance=multi_instance,
        thread_roots=thread_roots,
    )


def _iter_threaded_classes(
    model: ProjectModel,
) -> Iterator[tuple[ClassInfo, ClassContexts]]:
    for qualname in sorted(model.classes):
        klass = model.classes[qualname]
        contexts = class_contexts(model, klass)
        if contexts is not None:
            yield klass, contexts


@dataclass(frozen=True)
class _MutationRecord:
    context: str
    method: str
    mutation: AttrMutation
    effective_locks: frozenset[str]


def _mutation_records(
    contexts: ClassContexts,
) -> dict[str, list[_MutationRecord]]:
    """Per attribute: every mutation site with its context + lockset."""
    klass = contexts.klass
    by_attr: dict[str, list[_MutationRecord]] = {}
    for label, members in sorted(contexts.reach.items()):
        must = contexts.must_entry[label]
        for name in sorted(members):
            fn = klass.methods.get(name)
            if fn is None or name == "__init__":
                continue
            entry = must.get(fn.qualname, frozenset())
            for mutation in fn.mutations:
                if mutation.attr in klass.lock_attrs:
                    continue
                by_attr.setdefault(mutation.attr, []).append(
                    _MutationRecord(
                        context=label,
                        method=name,
                        mutation=mutation,
                        effective_locks=entry | mutation.locks,
                    )
                )
    return by_attr


def _context_desc(contexts: ClassContexts, label: str) -> str:
    if label == MAIN_CONTEXT:
        return "the caller thread"
    root = contexts.thread_roots[label]
    extra = " (multiple instances)" if label in contexts.multi_instance else ""
    return f"thread target '{root}'{extra}"


# ------------------------------------------------------------------ rules
class SharedMutationRule(ModelRule):
    """RPR201 — the flagship race rule."""

    rule_id = "RPR201"
    title = "shared attribute written from two threads without a common lock"
    rationale = (
        "an unsynchronized write racing another thread makes trial state "
        "depend on scheduling, which no seed can make reproducible"
    )

    def check_model(self, model: ProjectModel) -> Iterable[Finding]:
        for klass, contexts in _iter_threaded_classes(model):
            yield from self._check_class(model, klass, contexts)

    def _check_class(
        self, model: ProjectModel, klass: ClassInfo, contexts: ClassContexts
    ) -> Iterator[Finding]:
        for attr, records in sorted(_mutation_records(contexts).items()):
            conflict = self._first_conflict(contexts, records)
            if conflict is None:
                continue
            first, second = conflict
            anchor = first if first.context != MAIN_CONTEXT else second
            other = second if anchor is first else first
            fn = klass.methods[anchor.method]
            if anchor.context == MAIN_CONTEXT:
                trace: tuple[str, ...] = ()
            else:
                root = contexts.thread_roots[anchor.context]
                trace = tuple(
                    model.call_path(
                        klass.methods[root].qualname, fn.qualname
                    )
                )
            if anchor is other:
                detail = (
                    f"also racing itself across instances of "
                    f"{_context_desc(contexts, anchor.context)}"
                )
            else:
                detail = (
                    f"also written from {_context_desc(contexts, other.context)} "
                    f"at line {other.mutation.line} "
                    f"({'no lock' if not other.effective_locks else 'different lock'})"
                )
            yield self.finding(
                fn,
                anchor.mutation.line,
                anchor.mutation.col,
                (
                    f"'self.{attr}' is written from "
                    f"{_context_desc(contexts, anchor.context)} without a common "
                    f"lock; {detail}"
                ),
                trace=trace,
            )

    @staticmethod
    def _first_conflict(
        contexts: ClassContexts, records: list[_MutationRecord]
    ) -> tuple[_MutationRecord, _MutationRecord] | None:
        ordered = sorted(
            records, key=lambda r: (r.mutation.line, r.mutation.col, r.context)
        )
        for i, first in enumerate(ordered):
            for second in ordered[i:]:
                same_site = (
                    first.context == second.context
                    and first.mutation == second.mutation
                )
                if same_site:
                    # a multi-instance thread context races with itself
                    if (
                        first.context in contexts.multi_instance
                        and not first.effective_locks
                    ):
                        return first, second
                    continue
                if first.context == second.context:
                    if (
                        first.context in contexts.multi_instance
                        and not (first.effective_locks & second.effective_locks)
                    ):
                        return first, second
                    continue
                if not (first.effective_locks & second.effective_locks):
                    return first, second
        return None


class LockOrderCycleRule(ModelRule):
    """RPR202 — static deadlock hazards."""

    rule_id = "RPR202"
    title = "lock-order cycle across nested acquisitions"
    rationale = (
        "two code paths taking the same locks in opposite order can "
        "deadlock a campaign mid-run, stranding partial result tables"
    )

    def check_model(self, model: ProjectModel) -> Iterable[Finding]:
        may = model.may_entry_locks()
        # first (deterministic) witness acquire per lock-order edge
        edges: dict[tuple[str, str], tuple[FunctionInfo, int, int]] = {}
        for qualname in sorted(model.functions):
            fn = model.functions[qualname]
            entry = may.get(qualname, frozenset())
            for acquire in fn.acquires:
                for held in sorted(acquire.held_before | entry):
                    if held == acquire.lock:
                        continue
                    edges.setdefault(
                        (held, acquire.lock), (fn, acquire.line, acquire.col)
                    )
        adjacency: dict[str, set[str]] = {}
        for outer, inner in edges:
            adjacency.setdefault(outer, set()).add(inner)
        reported: set[frozenset[str]] = set()
        for outer, inner in sorted(edges):
            cycle = self._cycle_nodes(adjacency, inner, outer)
            if cycle is None:
                continue
            nodes = frozenset(cycle)
            if nodes in reported:
                continue
            reported.add(nodes)
            fn, line, col = edges[(outer, inner)]
            order = " -> ".join([outer, *cycle])
            yield self.finding(
                fn,
                line,
                col,
                f"lock-order cycle: {order}; another path acquires these "
                "locks in the opposite order (potential deadlock)",
            )

    @staticmethod
    def _cycle_nodes(
        adjacency: dict[str, set[str]], start: str, goal: str
    ) -> list[str] | None:
        """Path start -> ... -> goal in the lock graph, if one exists."""
        parents: dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            current = queue.pop(0)
            for nxt in sorted(adjacency.get(current, ())):
                if nxt in seen:
                    continue
                seen.add(nxt)
                parents[nxt] = current
                if nxt == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                queue.append(nxt)
        return [start] if start == goal else None


class BlockingCallUnderLockRule(ModelRule):
    """RPR203 — blocking I/O and sleeps while holding a lock."""

    rule_id = "RPR203"
    title = "blocking call while holding a lock"
    rationale = (
        "a lock held across network I/O, sleeps or subprocess waits "
        "serializes every other thread behind one slow peer"
    )

    def check_model(self, model: ProjectModel) -> Iterable[Finding]:
        may = model.may_entry_locks()
        for qualname in sorted(model.functions):
            fn = model.functions[qualname]
            entry = may.get(qualname, frozenset())
            for site in fn.calls:
                held = site.locks | entry
                if not held:
                    continue
                verdict = self._blocking(model, fn, site, held)
                if verdict is None:
                    continue
                locks = ", ".join(sorted(held))
                suffix = "" if site.locks else " (lock held by callers at entry)"
                yield self.finding(
                    fn,
                    site.line,
                    site.col,
                    f"'{site.name}' {verdict} while holding {locks}{suffix}",
                )

    def _blocking(
        self,
        model: ProjectModel,
        fn: FunctionInfo,
        site: CallSite,
        held: frozenset[str],
    ) -> str | None:
        """Socket I/O, sleeps and subprocess waits are reported whatever
        their bound; parks and queue waits only when unbounded."""
        if site.kind == hazards.SLEEP:
            return "sleeps"
        if site.kind in hazards.SOCKET_KINDS:
            return "performs socket/stream I/O"
        if site.kind == hazards.SUBPROCESS:
            return "waits on a subprocess"
        if site.bounded:
            return None
        receiver = site.name.rpartition(".")[0]
        if site.kind == hazards.PARK:
            if self._is_held_sync_attr(model, fn, receiver, held):
                return None  # Condition.wait releases the lock it wraps
            return "blocks without a timeout"
        if site.kind == hazards.QUEUE and self._queue_typed(model, fn, receiver):
            return "blocks on a queue without a timeout"
        return None

    @staticmethod
    def _is_held_sync_attr(
        model: ProjectModel,
        fn: FunctionInfo,
        receiver: str,
        held: frozenset[str],
    ) -> bool:
        """True when ``receiver`` is a condition/lock attr whose
        *canonical* lock (after Condition aliasing) is among the held
        set — ``self._cond.wait()`` releases the lock it wraps."""
        parts = receiver.split(".")
        if len(parts) != 2 or parts[0] != "self" or fn.cls is None:
            return False
        klass = model.classes.get(fn.cls)
        if klass is None:
            return False
        lock_id = klass.lock_attrs.get(parts[1])
        return lock_id is not None and lock_id in held

    @staticmethod
    def _queue_typed(model: ProjectModel, fn: FunctionInfo, receiver: str) -> bool:
        type_name: str | None = None
        if receiver.startswith("self.") and fn.cls is not None:
            klass = model.classes.get(fn.cls)
            if klass is not None:
                type_name = klass.attr_types.get(receiver.split(".", 1)[1])
        elif "." not in receiver:
            type_name = fn.local_types.get(receiver)
        return bool(type_name) and type_name.rsplit(".", 1)[-1].endswith("Queue")


class ThreadLifecycleRule(ModelRule):
    """RPR204 — threads with no lifecycle plan."""

    rule_id = "RPR204"
    title = "Thread without daemon= and without a reachable join()"
    rationale = (
        "a non-daemon, never-joined thread outlives the campaign and can "
        "keep writing results after the fingerprint is sealed"
    )

    def check_model(self, model: ProjectModel) -> Iterable[Finding]:
        for qualname in sorted(model.functions):
            fn = model.functions[qualname]
            for spawn in fn.spawns:
                if spawn.daemon:
                    continue
                if self._is_joined(model, fn, spawn):
                    continue
                target = spawn.target or "<unknown>"
                yield self.finding(
                    fn,
                    spawn.line,
                    spawn.col,
                    (
                        f"Thread(target={target}) has no daemon= flag and is "
                        "never joined in its class/module; pass daemon= or "
                        "join() it on shutdown"
                    ),
                )

    @staticmethod
    def _is_joined(
        model: ProjectModel, fn: FunctionInfo, spawn: ThreadSpawn
    ) -> bool:
        scope: list[FunctionInfo]
        if fn.cls is not None:
            klass = model.classes.get(fn.cls)
            scope = list(klass.methods.values()) if klass else [fn]
        else:
            module = model.modules.get(fn.module)
            scope = list(module.functions.values()) if module else [fn]
        if spawn.assigned_to is not None:
            for other in scope:
                if spawn.assigned_to in other.joins:
                    return True
        # container / loop-variable joins: any .join() in scope counts
        return any(other.joins for other in scope)


class CheckThenActRule(ModelRule):
    """RPR205 — non-atomic check-then-act on shared state."""

    rule_id = "RPR205"
    title = "check-then-act on shared state outside a lock"
    rationale = (
        "testing and then mutating shared state without holding a lock "
        "lets another thread interleave between the check and the write"
    )

    def check_model(self, model: ProjectModel) -> Iterable[Finding]:
        for klass, contexts in _iter_threaded_classes(model):
            shared = self._shared_attrs(contexts)
            if not shared:
                continue
            reported: set[tuple[str, int]] = set()
            for label, members in sorted(contexts.reach.items()):
                must = contexts.must_entry[label]
                for name in sorted(members):
                    fn = klass.methods.get(name)
                    if fn is None or name == "__init__":
                        continue
                    entry = must.get(fn.qualname, frozenset())
                    for cta in fn.check_then_acts:
                        if cta.attr not in shared:
                            continue
                        if entry | cta.locks:
                            continue
                        key = (cta.attr, cta.line)
                        if key in reported:
                            continue
                        reported.add(key)
                        yield self.finding(
                            fn,
                            cta.line,
                            cta.col,
                            (
                                f"check-then-act on shared 'self.{cta.attr}' "
                                f"outside a lock in "
                                f"{_context_desc(contexts, label)}; another "
                                "thread can interleave between the test and "
                                "the write"
                            ),
                        )

    @staticmethod
    def _shared_attrs(contexts: ClassContexts) -> set[str]:
        """Attrs mutated from a thread context that is either
        multi-instance or accompanied by another mutating context."""
        by_attr = _mutation_records(contexts)
        shared: set[str] = set()
        for attr, records in by_attr.items():
            labels = {r.context for r in records}
            threaded = [label for label in labels if label != MAIN_CONTEXT]
            if not threaded:
                continue
            if len(labels) > 1 or any(
                label in contexts.multi_instance for label in threaded
            ):
                shared.add(attr)
        return shared
