"""Per-layer timing for the traced benchmark run, installed from outside.

Nothing in ``src/`` is edited: :class:`LayerClock` replaces public
functions and methods of the ``repro`` layers with thin wrappers that
add each call's wall time and count to a named total, and
:class:`SpanTotals` is a telemetry sink that sums the spans the
framework back-ends already emit (``rollout``, ``update``,
``weight_sync``, ``evaluate``). The same wrappers run inside the
loopback workers (``perfbench/worker.py``), which write their totals to
a JSON file the traced run folds in.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable

#: layer metric -> [(module, "Class.method" or "function"), ...]
TARGETS: dict[str, list[tuple[str, str]]] = {
    "airdrop.step": [("repro.airdrop.env", "AirdropEnv.step")],
    "airdrop.vec_step": [("repro.airdrop.batch", "AirdropVectorEnv.step")],
    "rl.act": [("repro.rl.ppo", "PPOAgent.act"), ("repro.rl.sac", "SACAgent.act")],
    "rl.value": [("repro.rl.ppo", "PPOAgent.value")],
    "rl.ppo_update": [("repro.rl.ppo", "PPOAgent.update")],
    "rl.sac_update": [("repro.rl.sac", "SACAgent.update")],
    "cluster.run": [("repro.cluster.simulator", "ClusterSimulator.run")],
    "cluster.energy": [("repro.cluster.power", "energy_from_trace")],
    "core.rank": [("repro.core.ranking", "ParetoFrontRanking.rank")],
    "core.fingerprint": [("repro.core.serialization", "table_fingerprint")],
    "exec.cache_key": [("repro.exec.cache", "TrialCache.key")],
    "exec.cache_lookup": [("repro.exec.cache", "TrialCache.lookup")],
    "exec.cache_store": [("repro.exec.cache", "TrialCache.store")],
    "exec.journal_record": [("repro.exec.journal", "CampaignJournal.record")],
    "exec.journal_open": [("repro.exec.journal", "CampaignJournal.open")],
    "net.send_frame": [("repro.net.protocol", "send_frame")],
    "net.recv_frame": [("repro.net.protocol", "recv_frame")],
    "net.payload_encode": [("repro.net.protocol", "encode_payload")],
    "net.payload_decode": [("repro.net.protocol", "decode_payload")],
}

#: modules that bind the wrapped functions by name; imported before
#: wrapping so every such binding is rebound
PRELOAD = ("repro.net", "repro.serve", "repro.frameworks", "repro.paper")

#: spans emitted by ``repro.frameworks`` -> layer metric
SPANS = {
    "rollout": "frameworks.rollout",
    "update": "frameworks.update",
    "weight_sync": "frameworks.weight_sync",
    "evaluate": "frameworks.evaluate",
}


def _act_rows(args: tuple[Any, ...], kwargs: dict[str, Any]) -> int:
    """Observation rows of one ``act(self, observations)`` call."""
    shape = getattr(args[1], "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _frame_bytes(args: tuple[Any, ...], kwargs: dict[str, Any]) -> int:
    """JSON body bytes of a frame before signing, plus the length prefix."""
    frame = args[1] if len(args) > 1 else kwargs["frame"]
    return 4 + len(json.dumps(frame, sort_keys=True).encode("utf-8"))


#: extra per-call quantities a wrapper records alongside time and calls
_EXTRAS: dict[str, Callable[[tuple[Any, ...], dict[str, Any]], int]] = {
    "airdrop.vec_step": lambda args, kwargs: int(args[0].num_envs),
    "rl.act": _act_rows,
    "net.send_frame": _frame_bytes,
}


class LayerClock:
    """Wall time, calls and per-call extras for every wrapped target.

    ``totals[name]`` is ``[seconds, calls, extra, hits]``: ``extra`` sums
    rows (acting, batched physics) or bytes (frames sent); ``hits``
    counts cache lookups that returned an entry. ``recv_frame`` blocks
    until a frame arrives, so its time starts when the length prefix
    has been read (body read, JSON decode and HMAC check), and calls
    that time out without a frame are not counted.
    """

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {name: [0.0, 0, 0, 0] for name in TARGETS}
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        #: per thread: when the current frame's length prefix had arrived
        self._body_started = threading.local()

    def _wrap(self, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
        total = self.totals[name]
        lock = self._lock
        extra = _EXTRAS.get(name)
        clock = time.perf_counter
        is_recv = name == "net.recv_frame"
        is_lookup = name == "exec.cache_lookup"
        body_started = self._body_started

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            result = original(*args, **kwargs)
            t1 = clock()
            if is_recv:
                if result is None:
                    return result
                t0 = body_started.t
            dt = t1 - t0
            n = extra(args, kwargs) if extra is not None else 0
            with lock:
                total[0] += dt
                total[1] += 1
                total[2] += n
                if is_lookup and result is not None:
                    total[3] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; module-level functions are rebound in every
        loaded ``repro`` module that imported them by name."""
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for name, targets in TARGETS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[method]
                    self._set(owner, method, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        loaded.__dict__.get(attr) is original
                    ):
                        self._set(loaded, attr, wrapper)
        # recv_frame reads the body with _recv_exact once the length
        # prefix is in: that moment starts the timed part of a receive
        protocol = importlib.import_module("repro.net.protocol")
        recv_exact = protocol._recv_exact
        body_started = self._body_started
        clock = time.perf_counter

        def mark_body(*args: Any, **kwargs: Any) -> Any:
            body_started.t = clock()
            return recv_exact(*args, **kwargs)

        self._set(protocol, "_recv_exact", mark_body)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def merge(self, other: dict[str, list[float]]) -> None:
        """Add totals recorded elsewhere (a worker process's JSON dump)."""
        for name, values in other.items():
            mine = self.totals[name]
            for i, value in enumerate(values):
                mine[i] += value


class SpanTotals:
    """A ``repro.obs`` sink summing the framework phase spans by name."""

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {name: [0.0, 0] for name in SPANS.values()}

    def emit(self, record: dict[str, Any]) -> None:
        if record.get("type") != "span":
            return
        name = SPANS.get(record.get("name", ""))
        if name is not None:
            total = self.totals[name]
            total[0] += record["t_end"] - record["t_start"]
            total[1] += 1

    def close(self) -> None:
        pass


def layer_metrics(
    clock: LayerClock,
    spans: SpanTotals,
    wall_s: float,
    measured: dict[str, tuple[float, int]] | None = None,
) -> dict[str, float]:
    """Busy seconds, calls, seconds per call and share of ``wall_s`` for
    every wrapped function, span and ``measured`` interval (name ->
    (seconds, count)), plus the ratios derived from the wrappers."""
    timed = {name: (t[0], t[1]) for name, t in clock.totals.items()}
    timed.update({name: (t[0], t[1]) for name, t in spans.totals.items()})
    timed.update(measured or {})
    out: dict[str, float] = {}
    for name, (seconds, calls) in sorted(timed.items()):
        out[f"{name}_s"] = seconds
        out[f"{name}_calls"] = calls
        out[f"{name}_s_per_call"] = seconds / calls if calls else 0.0
        out[f"{name}_share"] = seconds / wall_s if wall_s > 0 else 0.0
    totals = clock.totals
    vec = totals["airdrop.vec_step"]
    act = totals["rl.act"]
    lookup = totals["exec.cache_lookup"]
    out["airdrop.vec_rows_per_call"] = vec[2] / vec[1] if vec[1] else 0.0
    out["rl.act_rows_per_call"] = act[2] / act[1] if act[1] else 0.0
    out["net.send_bytes"] = totals["net.send_frame"][2]
    out["exec.cache_hit_ratio"] = lookup[3] / lookup[1] if lookup[1] else 0.0
    return out
