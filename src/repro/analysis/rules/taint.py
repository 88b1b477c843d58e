"""Interprocedural nondeterminism taint (the RPR001/RPR002 upgrade).

The per-file determinism rules only scan packages whose code is hashed
into the campaign identity — a wall-clock read in ``core`` was invisible
even when a cache-key helper called it.  These model rules close that
hole: every function containing a ``hashlib`` digest construction is a
**sink**, and the call graph is walked from each sink to find
**sources** — unseeded RNG draws (RPR001) and wall-clock reads
(RPR002) — any number of call hops away, in any package.  Findings are
anchored at the source expression and carry a ``trace`` of the call
chain from the sink, so the report shows *why* the helper taints a
fingerprint.

Findings that coincide with the per-file scan (same rule at the same
location) are deduplicated by the engine, the traced finding winning.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Callable, Iterable, Iterator

from .. import hazards
from ..engine import Finding, ModelRuleLike
from ..model import FunctionInfo, ProjectModel

__all__ = ["TaintedRngRule", "TaintedClockRule"]

#: how many call-graph hops a sink may be from a source
MAX_TAINT_HOPS = 6


def _imports(model: ProjectModel, fn: FunctionInfo) -> hazards.ImportTable:
    return model.modules[fn.module].ctx.imports


def _is_digest_sink(model: ProjectModel, fn: FunctionInfo) -> bool:
    imports = _imports(model, fn)
    return any(
        isinstance(node, ast.Call)
        and hazards.is_digest(hazards.call_target(node, imports))
        for node in ast.walk(fn.node)
    )


class _TaintRule(ModelRuleLike):
    """Shared sink-to-source walk; subclasses pick the source kind."""

    noun = ""  #: human name of the source kind

    def sources(
        self, fn: FunctionInfo, imports: hazards.ImportTable
    ) -> Iterator[hazards.Site]:
        raise NotImplementedError

    def describe(self, site: hazards.Site) -> str:
        """The source as the finding names it: its resolved name."""
        return site.target

    def check_model(self, model: ProjectModel) -> Iterable[Finding]:
        source_cache: dict[str, list[tuple[int, int, str]]] = {}

        def sources_of(qualname: str) -> list[tuple[int, int, str]]:
            if qualname not in source_cache:
                fn = model.functions[qualname]
                source_cache[qualname] = sorted(
                    (site.node.lineno, site.node.col_offset, self.describe(site))
                    for site in self.sources(fn, _imports(model, fn))
                )
            return source_cache[qualname]

        sinks = sorted(
            qualname
            for qualname, fn in model.functions.items()
            if _is_digest_sink(model, fn)
        )
        for sink in sinks:
            yield from self._walk_sink(model, sink, sources_of)

    def _walk_sink(
        self,
        model: ProjectModel,
        sink: str,
        sources_of: Callable[[str], list[tuple[int, int, str]]],
    ) -> Iterator[Finding]:
        parents: dict[str, str] = {}
        queue: deque[tuple[str, int]] = deque([(sink, 0)])
        seen = {sink}
        while queue:
            current, depth = queue.popleft()
            fn = model.functions[current]
            for line, col, desc in sources_of(current):
                trace: list[str] = [current]
                while trace[-1] != sink:
                    trace.append(parents[trace[-1]])
                trace.reverse()
                hops = len(trace) - 1
                where = (
                    "directly inside it"
                    if hops == 0
                    else f"{hops} call hop(s) away"
                )
                yield Finding(
                    rule=self.rule_id,
                    path=fn.path,
                    line=line,
                    col=col,
                    message=(
                        f"{self.noun} ({desc}) can reach digest sink "
                        f"'{sink}' {where}; fingerprint inputs must be "
                        "deterministic"
                    ),
                    trace=tuple(trace),
                )
            if depth >= MAX_TAINT_HOPS:
                continue
            for callee in sorted({c for c, _ in model.call_graph.get(current, [])}):
                if callee not in seen:
                    seen.add(callee)
                    parents[callee] = current
                    queue.append((callee, depth + 1))


class TaintedRngRule(_TaintRule):
    """RPR001, interprocedural: unseeded RNG feeding a digest."""

    rule_id = "RPR001"
    title = "unseeded RNG reachable from a digest sink"
    rationale = (
        "an unseeded random draw anywhere on a cache-key or fingerprint "
        "call path makes byte-identity impossible"
    )
    noun = "unseeded RNG draw"

    def sources(
        self, fn: FunctionInfo, imports: hazards.ImportTable
    ) -> Iterator[hazards.Site]:
        return hazards.rng_draws(fn.node, imports)

    def describe(self, site: hazards.Site) -> str:
        if site.kind == hazards.UNSEEDED:
            return f"{site.target}() without a seed"
        return site.target


class TaintedClockRule(_TaintRule):
    """RPR002, interprocedural: wall-clock feeding a digest."""

    rule_id = "RPR002"
    title = "wall-clock read reachable from a digest sink"
    rationale = (
        "a clock read anywhere on a cache-key or fingerprint call path "
        "bakes run time into results that must be byte-identical"
    )
    noun = "wall-clock read"

    def sources(
        self, fn: FunctionInfo, imports: hazards.ImportTable
    ) -> Iterator[hazards.Site]:
        return hazards.clock_reads(fn.node, imports)
