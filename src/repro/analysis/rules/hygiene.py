"""Hygiene rules: failure paths that must not swallow evidence."""

from __future__ import annotations

import ast
from typing import Iterator

from .. import hazards
from ..engine import FileContext, Finding, Rule

__all__ = [
    "SwallowedExceptionRule",
    "SocketTimeoutRule",
    "UnboundedRetryRule",
    "BlockingHandlerRule",
]

_BROAD = ("Exception", "BaseException")


class SwallowedExceptionRule(Rule):
    """RPR005: ``except: pass`` in executor/journal/recovery paths."""

    rule_id = "RPR005"
    title = "swallowed exception in a resilience path"
    rationale = (
        "executors, the journal and fault recovery must surface every "
        "failure as a structured outcome; a silent handler turns a broken "
        "trial into a wrong-but-committed one"
    )
    scope = ("exec", "faults")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if all(self._is_noop(stmt) for stmt in node.body):
                caught = "bare except" if node.type is None else (
                    f"except {ast.unparse(node.type)}"
                )
                yield self.finding(
                    ctx,
                    node,
                    f"{caught} swallows the error; record a structured "
                    "outcome (or narrow the exception type) instead",
                )

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        names = (
            [elt for elt in type_node.elts]
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        return any(
            isinstance(n, ast.Name) and n.id in _BROAD for n in names
        )

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        return isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ) and stmt.value.value is Ellipsis


class SocketTimeoutRule(Rule):
    """RPR007: blocking socket reads and dials in ``repro.net`` without a
    timeout.

    Each function is its own scope, and so is the module body: a call is
    judged by the catalogue's bound rule (``repro.analysis.hazards``),
    where a ``settimeout(...)`` counts only for the calls that follow it
    in the same scope. A timeout armed in an outer function does not
    protect a nested one. Writes are out of scope (``send_frame`` arms
    its own write deadline).
    """

    rule_id = "RPR007"
    title = "blocking socket call without an explicit timeout"
    rationale = (
        "a dead peer must surface as a timeout/'connection lost' outcome "
        "the retry policy can requeue, never as a silently hung campaign"
    )
    scope = ("net",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        units: list[ast.AST] = [ctx.tree]
        units.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for unit in units:
            for call, armed in hazards.armed_deadlines(_own_calls(unit)):
                target = hazards.call_target(call, ctx.imports)
                checked = hazards.blocking_kind(target) in (hazards.SOCKET_READ, hazards.DIAL)
                if not checked or hazards.bounded(call, target, armed):
                    continue
                verb = target.rpartition(".")[2]
                if verb == "create_connection":
                    message = (
                        "create_connection() without a timeout argument "
                        "blocks indefinitely on an unreachable coordinator"
                    )
                else:
                    message = (
                        f".{verb}() with no timeout armed in this function; "
                        "call settimeout(...) first so a dead peer cannot "
                        "hang the campaign"
                    )
                yield self.finding(ctx, call, message)


def _own_calls(unit: ast.AST) -> list[ast.Call]:
    """Calls in this scope's body, excluding nested function bodies."""
    calls: list[ast.Call] = []
    stack: list[ast.AST] = list(getattr(unit, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return calls


class UnboundedRetryRule(Rule):
    """RPR008: unbounded reconnect loops / uncapped backoff in ``repro.net``.

    Two shapes are flagged. A ``while True`` (or other constant-true)
    loop whose own scope dials a peer is an unbounded reconnect loop —
    bounded retry belongs in a ``for attempt in range(...)`` with the
    attempt budget visible. And a ``sleep()`` whose argument contains an
    exponential term (``**``) not wrapped in ``min(...)`` is an uncapped
    backoff — a worker that doubles forever is indistinguishable from a
    dead one. Both caps exist in :class:`repro.exec.RetryPolicy`; reuse
    it instead of hand-rolling the loop.
    """

    rule_id = "RPR008"
    title = "unbounded reconnect loop or uncapped backoff"
    rationale = (
        "a reconnect path with no attempt budget or backoff ceiling turns "
        "a dead coordinator into a worker that spins or sleeps forever "
        "instead of exiting with a diagnosable status"
    )
    scope = ("net",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.While) and _is_constant_true(node.test):
                targets = (hazards.call_target(c, ctx.imports) for c in _own_calls(node))
                dials = [t for t in targets if hazards.blocking_kind(t) == hazards.DIAL]
                if dials:
                    yield self.finding(
                        ctx,
                        node,
                        f"while-True loop redials via "
                        f"{dials[0].rpartition('.')[2]}() with no "
                        "attempt bound; use 'for attempt in range(...)' (or "
                        "RetryPolicy) so giving up is a visible outcome",
                    )
            elif (
                isinstance(node, ast.Call)
                and node.args
                and _uncapped_pow(node.args[0])
                and hazards.blocking_kind(hazards.call_target(node, ctx.imports))
                == hazards.SLEEP
            ):
                yield self.finding(
                    ctx,
                    node,
                    "exponential backoff with no cap; wrap the delay in "
                    "min(..., max_backoff) (RetryPolicy.delay does this) "
                    "so retries stay responsive",
                )


class BlockingHandlerRule(Rule):
    """RPR009: unbounded blocking in the ``repro.serve`` request path.

    The campaign service handles every request on an ``http.server``
    thread. Two kinds of call are flagged anywhere in the package,
    nested functions and module code included: a sleep in any form
    (polling belongs on the client; the server streams), and a park
    (``wait``/``join``/``acquire``) that the catalogue's bound rule
    (``repro.analysis.hazards``) does not call bounded. Long waits must
    be loops of bounded waits that re-check the drain flag, so a SIGTERM
    is always observed; a handler parked forever on a campaign that was
    checkpointed away never returns and leaks its thread.
    """

    rule_id = "RPR009"
    title = "request thread sleeps or blocks without a deadline"
    rationale = (
        "a served campaign can outlive any request; handlers that sleep "
        "or park unboundedly leak threads and make graceful drain hang "
        "instead of checkpointing"
    )
    scope = ("serve",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = hazards.call_target(node, ctx.imports)
            kind = hazards.blocking_kind(target)
            if kind == hazards.SLEEP:
                yield self.finding(
                    ctx,
                    node,
                    "sleep() in the serve package; stream incremental "
                    "results or loop on a bounded cond.wait(timeout=...) "
                    "that re-checks the drain flag",
                )
            elif kind == hazards.PARK and not hazards.bounded(node, target):
                yield self.finding(
                    ctx,
                    node,
                    f".{target.rpartition('.')[2]}() with no timeout parks "
                    "this thread until someone else acts; pass timeout=... "
                    "and re-check terminal/drain state in a loop",
                )


def _is_constant_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _uncapped_pow(expr: ast.expr) -> bool:
    """True when ``expr`` contains a ``**`` term outside any ``min(...)``."""
    capped: set[int] = set()
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "min"
        ):
            capped.update(
                id(sub)
                for sub in ast.walk(node)
                if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow)
            )
    return any(
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and id(node) not in capped
        for node in ast.walk(expr)
    )
