"""The hazard catalogue: what a call is, decided once for every rule.

Rules classify a call here over its **import-resolved** dotted name
(``np.random.rand`` after ``import numpy as np`` is ``numpy.random.rand``,
``clock()`` after ``from time import perf_counter as clock`` is
``time.perf_counter``); ``FileContext.imports`` gives the per-file rules
and the project model the same table. A call is an unseeded RNG draw
(:func:`rng_draws`), a wall-clock read (:func:`clock_reads`), a digest
(:func:`is_digest`), or a blocking call of one of seven kinds
(:func:`blocking_kind`), bounded or not by the one rule in
:func:`bounded`. Each rule picks the kinds it checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "ImportTable", "Site", "armed_deadlines", "blocking_kind", "bounded",
    "call_target", "clock_reads", "dotted_name", "is_digest", "rng_draws",
]


# ------------------------------------------------------------------ names
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ImportTable:
    """One module's top-level imports: each name bound -> the dotted
    path it stands for (``np`` -> ``numpy``, ``import a.b`` binds ``a``,
    ``from .m import n as a`` binds ``a`` to ``pkg.m.n``); a ``from``
    binding wins over a plain ``import`` of the same name."""

    bindings: dict[str, str]

    @classmethod
    def build(cls, tree: ast.AST, module: str, is_package: bool = False) -> "ImportTable":
        """``module`` is the file's dotted name, the anchor for relative
        imports; a package's ``__init__`` (``is_package``) anchors them at
        the package itself, as its ``__package__`` does."""
        anchor = f"{module}.__init__" if is_package else module
        modules: dict[str, str] = {}
        names: dict[str, str] = {}
        for stmt in tree.body if isinstance(tree, ast.Module) else []:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname is not None:
                        modules[alias.asname] = alias.name
                    else:  # "import a.b" binds "a"
                        head = alias.name.split(".")[0]
                        modules[head] = head
            elif isinstance(stmt, ast.ImportFrom):
                package = anchor.split(".")[: -stmt.level] if stmt.level else []
                base = ".".join([*package, stmt.module] if stmt.module else package)
                for alias in stmt.names:
                    if alias.name != "*":
                        path = f"{base}.{alias.name}" if base else alias.name
                        names[alias.asname or alias.name] = path
        return cls({**modules, **names})

    def resolve(self, name: str) -> str:
        """Resolve a dotted name's head through the table
        (``np.random.default_rng`` -> ``numpy.random.default_rng``)."""
        head, dot, rest = name.partition(".")
        base = self.bindings.get(head)
        return name if base is None else f"{base}{dot}{rest}"


def call_target(call: ast.Call, imports: ImportTable) -> str:
    """The import-resolved dotted name a call invokes. A computed callee
    reads as ``<expr>`` (``",".join`` as ``<expr>.join``): its verb
    still counts, but no module name can match it."""
    name = dotted_name(call.func)
    if name is not None:
        return imports.resolve(name)
    if isinstance(call.func, ast.Attribute):
        return f"<expr>.{call.func.attr}"
    return "<expr>"


def _verb(target: str) -> str:
    return target.rpartition(".")[2]


def _is_literal(node: ast.expr, value: object) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


@dataclass(frozen=True)
class Site:
    """One determinism hazard: where, as written, as resolved, what."""

    node: ast.expr
    name: str  #: dotted, as written
    target: str  #: import-resolved
    kind: str


# --------------------------------------------------------- RNG and clocks
#: kinds of RNG hazard
NUMPY_GLOBAL = "numpy global state"
STDLIB_GLOBAL = "stdlib global state"
UNSEEDED = "unseeded constructor"

#: stdlib ``random`` module functions that mutate/read the hidden global RNG
_STDLIB_RANDOM = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)

#: ``numpy.random`` attributes that are *not* the legacy global-state API
_NUMPY_EXPLICIT = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64",
                             "Philox", "SFC64", "MT19937", "BitGenerator"})


def _rng_kind(target: str, call: ast.Call) -> str | None:
    head, _, fn = target.rpartition(".")
    no_seed = not call.args and not call.keywords
    if head in ("numpy.random", "np.random"):
        if fn not in _NUMPY_EXPLICIT:
            return NUMPY_GLOBAL
        return UNSEEDED if fn == "default_rng" and no_seed else None
    if head == "random" and fn in _STDLIB_RANDOM:
        return STDLIB_GLOBAL
    if target in ("default_rng", "random.Random") and no_seed:
        return UNSEEDED
    return None


def rng_draws(root: ast.AST, imports: ImportTable) -> Iterator[Site]:
    """Every unseeded or global-state RNG call under ``root``."""
    for node in ast.walk(root):
        if isinstance(node, ast.Call) and (name := dotted_name(node.func)):
            target = imports.resolve(name)
            kind = _rng_kind(target, node)
            if kind is not None:
                yield Site(node, name, target, kind)


#: kinds of wall-clock read
CLOCK = "time counter"
CALENDAR = "calendar date"

#: ``time`` counters; perf_counter/monotonic are included because aliasing
#: them into measured code is exactly how timing leaks into results
_TIME_FNS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns", "process_time", "process_time_ns"}
)
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


def _clock_kind(target: str) -> str | None:
    head, _, fn = target.rpartition(".")
    if head == "time" and fn in _TIME_FNS:
        return CLOCK
    if fn in _DATETIME_FNS and _verb(head) in ("datetime", "date"):
        return CALENDAR
    return None


def clock_reads(root: ast.AST, imports: ImportTable) -> Iterator[Site]:
    """Every wall-clock reference under ``root``, called or not."""
    for node in ast.walk(root):
        if isinstance(node, (ast.Attribute, ast.Name)) and (name := dotted_name(node)):
            target = imports.resolve(name)
            kind = _clock_kind(target)
            if kind is not None:
                yield Site(node, name, target, kind)


def is_digest(target: str) -> bool:
    """Every ``hashlib`` function builds or derives a digest."""
    return target.startswith("hashlib.")


# --------------------------------------------------------- blocking calls
SOCKET_READ = "socket read"
SOCKET_WRITE = "socket write"
DIAL = "dial"
SLEEP = "sleep"
PARK = "park"
QUEUE = "queue"
SUBPROCESS = "subprocess"
SOCKET_KINDS = frozenset({SOCKET_READ, SOCKET_WRITE, DIAL})

#: verb -> kind; any other verb containing "connect" (``reconnect``) dials too
_VERBS = {
    **dict.fromkeys(("recv", "recv_into", "recvfrom", "recvfrom_into", "accept"), SOCKET_READ),
    **dict.fromkeys(("send", "sendall"), SOCKET_WRITE),
    **dict.fromkeys(("connect", "connect_ex", "create_connection", "dial"), DIAL),
    "sleep": SLEEP,
    **dict.fromkeys(("wait", "join", "acquire"), PARK),
    **dict.fromkeys(("get", "put"), QUEUE),
}
_SUBPROCESS_WAITS = frozenset({"run", "call", "check_call", "check_output", "communicate"})


def blocking_kind(target: str) -> str | None:
    """The kind of wait a call makes, or None when it does not block."""
    verb = _verb(target)
    if verb in _VERBS:
        return _VERBS[verb]
    if "connect" in verb:
        return DIAL
    if target.partition(".")[0] == "subprocess" and verb in _SUBPROCESS_WAITS:
        return SUBPROCESS
    return None


#: verbs whose timeout may be passed by position, and at which position
_TIMEOUT_POSITION = {"wait": 0, "join": 0, "create_connection": 1}


def bounded(call: ast.Call, target: str, armed: bool = False) -> bool:
    """The one bound rule: whether a blocking call gives up on its own.

    A call is bounded when it passes a ``timeout=`` other than a literal
    ``None``; passes ``block=False`` (any ``block=`` but a literal
    ``True``) or ``blocking=False``; is ``wait``/``join``/
    ``create_connection`` with a positional timeout other than ``None``;
    is ``acquire``/``get`` with a literal ``False`` first positional; or
    is a socket call made while ``armed`` (see :func:`armed_deadlines`).
    """
    verb = _verb(target)
    for kw in call.keywords:
        if kw.arg == "timeout" and not _is_literal(kw.value, None):
            return True
        if kw.arg == "block" and not _is_literal(kw.value, True):
            return True
        if kw.arg == "blocking" and _is_literal(kw.value, False):
            return True
    position = _TIMEOUT_POSITION.get(verb, len(call.args))
    if position < len(call.args) and not _is_literal(call.args[position], None):
        return True
    if verb in ("acquire", "get") and call.args and _is_literal(call.args[0], False):
        return True
    return armed and blocking_kind(target) in SOCKET_KINDS


def armed_deadlines(calls: Iterable[ast.Call]) -> Iterator[tuple[ast.Call, bool]]:
    """The calls of one function in source order, each paired with
    whether a socket deadline is armed when it runs: an earlier
    ``settimeout(x)`` with ``x`` other than a literal ``None``, and no
    ``settimeout(None)`` since."""
    armed = False
    for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
        yield call, armed
        if getattr(call.func, "attr", None) == "settimeout" and call.args:
            armed = not _is_literal(call.args[0], None)
