"""Determinism rules RPR001–RPR004.

Each rule encodes one way a change can silently break the repo's
byte-identical results guarantee: hidden global randomness, wall-clock
values leaking into fingerprinted state, hash/JSON output depending on
``set``/``dict`` iteration order, and float accumulation order diverging
between the serial and vectorized paths.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ...exec.cache import CODE_HASH_PACKAGES
from ..engine import FileContext, Finding, Rule
from ..model import dotted_name

__all__ = [
    "UnseededRngRule",
    "WallClockRule",
    "UnorderedHashRule",
    "AccumulationOrderRule",
]

#: packages whose results feed Table I / trial fingerprints: global RNG
#: state or wall-clock reads here are reproducibility hazards
MEASURED_PACKAGES = ("rl", "airdrop", "envs", "faults", "frameworks")


#: stdlib ``random`` module functions that mutate/read the hidden global RNG
_STDLIB_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)

#: ``np.random`` attributes that are *not* the legacy global-state API
_NP_RANDOM_EXPLICIT = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64",
                                 "Philox", "SFC64", "MT19937", "BitGenerator"})


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
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            message = self._diagnose(name, node)
            if message is not None:
                yield self.finding(ctx, node, message)

    def _diagnose(self, name: str, call: ast.Call) -> str | None:
        head, _, fn = name.rpartition(".")
        if head in ("np.random", "numpy.random"):
            if fn in _NP_RANDOM_EXPLICIT:
                if fn == "default_rng" and _no_seed(call):
                    return (
                        f"{name}() without a seed draws OS entropy; "
                        "thread a seed through instead"
                    )
                return None
            return (
                f"{name} uses numpy's hidden global RNG; use a seeded "
                "np.random.Generator (default_rng(seed)) instead"
            )
        if head == "random" and fn in _STDLIB_RANDOM_FNS:
            return (
                f"{name} uses the stdlib global RNG; use a seeded "
                "random.Random(seed) or np.random.default_rng(seed)"
            )
        if name in ("default_rng", "np.random.default_rng") and _no_seed(call):
            return "default_rng() without a seed draws OS entropy"
        if name == "random.Random" and _no_seed(call):
            return "random.Random() without a seed draws OS entropy"
        return None


def _no_seed(call: ast.Call) -> bool:
    return not call.args and not call.keywords


#: wall-clock reads; perf_counter/monotonic are included because aliasing
#: them into measured code is exactly how timing leaks into results
_TIME_FNS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns", "process_time", "process_time_ns"}
)
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


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
        for node in ast.walk(ctx.tree):
            # both `time.time()` calls and `clock = time.perf_counter`
            # aliases: the alias is how clock reads usually sneak in
            if not isinstance(node, ast.Attribute):
                continue
            name = dotted_name(node)
            if name is None:
                continue
            head, _, fn = name.rpartition(".")
            if head == "time" and fn in _TIME_FNS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name} read in a module hashed into trial cache keys; "
                    "wall-clock values must not reach measurements or "
                    "fingerprints",
                )
            elif fn in _DATETIME_FNS and head.split(".")[-1] in ("datetime", "date"):
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() read in a module hashed into trial cache keys",
                )


#: hashlib constructors considered hash sinks
_HASHLIB_FNS = frozenset(
    {"new", "md5", "sha1", "sha224", "sha256", "sha384", "sha512",
     "blake2b", "blake2s", "sha3_256", "sha3_512", "shake_128", "shake_256"}
)


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
            sink = self._sink_kind(node)
            if sink is None:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                yield from self._scan_payload(ctx, arg, sink)

    def _sink_kind(self, call: ast.Call) -> str | None:
        name = dotted_name(call.func)
        if name is None:
            return None
        head, _, fn = name.rpartition(".")
        if head == "hashlib" and fn in _HASHLIB_FNS:
            return "hashlib"
        if name in ("json.dumps", "json.dump") and not any(
            kw.arg == "sort_keys" for kw in call.keywords
        ):
            return "json"
        return None

    def _scan_payload(
        self, ctx: FileContext, node: ast.AST, sink: str, in_sorted: bool = False
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name == "sorted":
                in_sorted = True
            elif (
                sink == "hashlib"
                and name in ("json.dumps", "json.dump")
                and not any(kw.arg == "sort_keys" for kw in node.keywords)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "json.dumps feeding a hash without sort_keys=True; "
                    "key order would depend on dict construction order",
                )
            hazard = self._hazard(node, in_sorted)
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

    def _hazard(self, call: ast.Call, in_sorted: bool) -> str | None:
        if in_sorted:
            return None
        name = dotted_name(call.func)
        if name == "set":
            return "set(...) feeding a digest without sorted()"
        if isinstance(call.func, ast.Attribute) and call.func.attr == "keys":
            return (
                f"{dotted_name(call.func) or '<expr>.keys'}() feeding a digest "
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
