"""Determinism rules RPR001–RPR004.

Each rule encodes one way a change can silently break the repo's
byte-identical results guarantee: hidden global randomness, wall-clock
values leaking into fingerprinted state, hash/JSON output depending on
``set``/``dict`` iteration order, and float accumulation order diverging
between the serial and vectorized paths.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...exec.cache import CODE_HASH_PACKAGES
from .. import hazards
from ..engine import FileContext, Finding, Rule

__all__ = [
    "UnseededRngRule",
    "WallClockRule",
    "UnorderedHashRule",
    "AccumulationOrderRule",
]

#: packages whose results feed Table I / trial fingerprints: global RNG
#: state or wall-clock reads here are reproducibility hazards
MEASURED_PACKAGES = ("rl", "airdrop", "envs", "faults", "frameworks")


class UnseededRngRule(Rule):
    """RPR001: construction/use of RNGs with no explicit seed."""

    rule_id = "RPR001"
    title = "unseeded or global-state RNG"
    rationale = (
        "hidden random state makes trials irreproducible across runs, "
        "executors and cache replays"
    )
    scope = MEASURED_PACKAGES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for site in hazards.rng_draws(ctx.tree, ctx.imports):
            if site.kind == hazards.NUMPY_GLOBAL:
                message = (
                    f"{site.name} uses numpy's hidden global RNG; use a seeded "
                    "np.random.Generator (default_rng(seed)) instead"
                )
            elif site.kind == hazards.STDLIB_GLOBAL:
                message = (
                    f"{site.name} uses the stdlib global RNG; use a seeded "
                    "random.Random(seed) or np.random.default_rng(seed)"
                )
            else:
                message = f"{site.name}() without a seed draws OS entropy"
                if site.name.endswith(".default_rng"):
                    message += "; thread a seed through instead"
            yield self.finding(ctx, site.node, message)


class WallClockRule(Rule):
    """RPR002: wall-clock reads inside fingerprint-feeding modules."""

    rule_id = "RPR002"
    title = "wall-clock read in a measured module"
    rationale = (
        "these packages are pinned by the trial cache's code-version tag; "
        "a clock value flowing into measurements breaks cache/twin-run "
        "byte-identity"
    )
    scope = CODE_HASH_PACKAGES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for site in hazards.clock_reads(ctx.tree, ctx.imports):
            if site.kind == hazards.CLOCK:
                message = (
                    f"{site.name} read in a module hashed into trial cache "
                    "keys; wall-clock values must not reach measurements "
                    "or fingerprints"
                )
            else:
                message = f"{site.name}() read in a module hashed into trial cache keys"
            yield self.finding(ctx, site.node, message)


class UnorderedHashRule(Rule):
    """RPR003: unordered iteration feeding a hash or canonical JSON."""

    rule_id = "RPR003"
    title = "unordered set/dict iteration feeding a digest"
    rationale = (
        "set iteration order varies across processes (str hash "
        "randomization), so digests built from it differ run to run"
    )
    scope = None  # identity hashing happens in core/exec/faults alike

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_kind(node, hazards.call_target(node, ctx.imports))
            if sink is None:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                yield from self._scan_payload(ctx, arg, sink)

    @staticmethod
    def _sink_kind(call: ast.Call, target: str) -> str | None:
        if hazards.is_digest(target):
            return "hashlib"
        if target in ("json.dumps", "json.dump") and not any(
            kw.arg == "sort_keys" for kw in call.keywords
        ):
            return "json"
        return None

    def _scan_payload(
        self, ctx: FileContext, node: ast.AST, sink: str, in_sorted: bool = False
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            target = hazards.call_target(node, ctx.imports)
            if target == "sorted":
                in_sorted = True
            elif sink == "hashlib" and self._sink_kind(node, target) == "json":
                yield self.finding(
                    ctx,
                    node,
                    "json.dumps feeding a hash without sort_keys=True; "
                    "key order would depend on dict construction order",
                )
            hazard = self._hazard(node, target, in_sorted)
            if hazard is not None:
                yield self.finding(ctx, node, hazard)
        elif isinstance(node, (ast.Set, ast.SetComp)) and not in_sorted:
            yield self.finding(
                ctx,
                node,
                "set literal/comprehension feeding a digest without sorted(); "
                "iteration order is process-dependent",
            )
        for child in ast.iter_child_nodes(node):
            yield from self._scan_payload(ctx, child, sink, in_sorted)

    @staticmethod
    def _hazard(call: ast.Call, target: str, in_sorted: bool) -> str | None:
        if in_sorted:
            return None
        if target == "set":
            return "set(...) feeding a digest without sorted()"
        if isinstance(call.func, ast.Attribute) and call.func.attr == "keys":
            return (
                f"{hazards.dotted_name(call.func) or '<expr>.keys'}() feeding a digest "
                "without sorted(); wrap in sorted(...) to pin the order"
            )
        return None


class AccumulationOrderRule(Rule):
    """RPR004: builtin ``sum`` over a lazy comprehension in numeric kernels."""

    rule_id = "RPR004"
    title = "order-sensitive float accumulation"
    rationale = (
        "builtin sum() folds left-to-right one element at a time; the "
        "vectorized twin (np.sum / stacked matvec) rounds differently, "
        "breaking serial-vs-vec bitwise equality"
    )
    scope = ("airdrop", "rl", "envs")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
            ):
                yield self.finding(
                    ctx,
                    node,
                    "builtin sum() over a comprehension in a numeric kernel; "
                    "use np.sum over a stacked array (or an explicit matvec) "
                    "so the serial and vectorized paths round identically",
                )
