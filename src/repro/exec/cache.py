"""Content-addressed trial cache: never evaluate the same trial twice.

A campaign's trial is a pure function of (configuration values, seed,
parameter-space shape, fault plan, case-study settings, and the source
code of the simulation/learning stack). :class:`TrialCache` memoizes
what each completed trial produced — its raw measurements, learning-curve
checkpoints and run time — under a digest of exactly those ingredients,
so repeated campaigns — reruns, overlapping sweeps, ``--resume`` after a
deleted journal — commit cache hits instead of re-training.

There is one record per key, read and written alike by the
:class:`~repro.core.Campaign` (on any executor) and by remote workers
(:class:`~repro.net.WorkerAgent`) sharing the directory. It holds the
outcome, not a :class:`~repro.core.results.TrialResult`: the coordinator
derives the result at commit, as for a trial it just ran, so a hit
carries nothing of the run that stored it (no telemetry snapshot, no
retry count). An entry in any other layout than ``format_version`` 2 —
such as the older result-level ``trial`` body — reads as a miss and is
overwritten by the next store, so an older cache reads cold once; that
store also removes the ``<key>.outcome.json`` file the older layout kept
beside it.

Unlike the :class:`~repro.exec.CampaignJournal` (which replays *this
campaign's* trials by trial id), the cache is keyed purely by content:
any campaign whose key matches may reuse the entry, across processes and
across runs, via the shared on-disk store.

The **code-version tag** guards against the classic memoization trap:
an edited reward function (or integrator, or agent) silently serving
stale results. :func:`code_version_tag` hashes the source bytes of every
module the trial outcome depends on (``repro.rl``, ``repro.airdrop``,
``repro.envs``, ``repro.frameworks``, ``repro.cluster``,
``repro.faults``); any source edit changes the tag and therefore every
key, invalidating the whole cache at once.

Only ``completed`` outcomes are stored: failures, timeouts and pruned
trials may be transient (retry policies exist precisely because of
them) and must re-run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any

__all__ = ["TrialCache", "atomic_write", "code_version_tag", "CODE_HASH_PACKAGES"]

#: sub-packages whose source participates in the code-version tag —
#: everything a trial's measurements can depend on
CODE_HASH_PACKAGES = (
    "airdrop",
    "cluster",
    "envs",
    "faults",
    "frameworks",
    "rl",
)

#: layout of one cache entry; an entry in any other layout is a miss
FORMAT_VERSION = 2

_default_tag: str | None = None


def code_version_tag(roots: list[str | os.PathLike] | None = None) -> str:
    """Digest of the trial-relevant source tree (12 hex chars).

    ``roots`` overrides the hashed directories (used by tests to prove an
    edited reward function invalidates cache entries); the default covers
    :data:`CODE_HASH_PACKAGES` under the installed ``repro`` package and
    is computed once per process.
    """
    global _default_tag
    default = roots is None
    if default and _default_tag is not None:
        return _default_tag
    if roots is None:
        package_root = Path(__file__).resolve().parent.parent
        roots = [package_root / name for name in CODE_HASH_PACKAGES]
    digest = hashlib.sha1()
    for root in sorted(Path(r) for r in roots):
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root.parent)
            digest.update(str(rel).encode("utf-8"))
            digest.update(b"\0")
            digest.update(hashlib.sha1(path.read_bytes()).hexdigest().encode("ascii"))
            digest.update(b"\n")
    tag = digest.hexdigest()[:12]
    if default:
        _default_tag = tag
    return tag


def atomic_write(target: str, blob: str) -> None:
    """Write ``blob`` to ``target`` through an fsync'd rename.

    A reader sees the old file or the whole new one, and the new one is
    on disk before it replaces the old. The temporary name is unique per
    thread, not just per process: ``repro serve`` runs concurrent jobs
    against one shared cache, and two of them storing the same trial
    must not rename each other's file.
    """
    tmp = f"{target}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def _guards(entry: dict[str, Any], config: Any, seed: int) -> bool:
    """Whether ``entry`` was stored for this configuration and seed."""
    return entry["config"] == dict(config.key()) and int(entry["seed"]) == int(seed)


class TrialCache:
    """Memoized trial outcomes, in memory and optionally on disk.

    Parameters
    ----------
    path:
        Directory for the persistent store (one JSON file per key,
        written atomically). ``None`` keeps the cache process-local.
    code_tag:
        Override for :func:`code_version_tag` (tests only).
    """

    def __init__(
        self, path: str | os.PathLike | None = None, code_tag: str | None = None
    ) -> None:
        self.path = None if path is None else os.fspath(path)
        self.code_tag = code_tag if code_tag is not None else code_version_tag()
        self._memory: dict[str, dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)

    # ----------------------------------------------------------------- keys
    def key(self, config: Any, seed: int, identity: dict[str, Any]) -> str:
        """The content address of one trial (32 hex chars).

        ``identity`` is the trial part of the campaign's identity (space
        hash, fault-plan hash, metric names, the case study's settings);
        the configuration values, seed and code tag are folded in here.
        ``trial_id`` is deliberately **not** part of the key — the same configuration
        proposed at a different position in a different campaign is the
        same work.
        """
        payload = {
            "config": dict(config.key()),
            "seed": int(seed),
            "code": self.code_tag,
            **{k: identity[k] for k in sorted(identity)},
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:32]

    # --------------------------------------------------------------- lookup
    def lookup(
        self, key: str, config: Any, seed: int
    ) -> tuple[dict[str, Any], list[tuple[int, float]], float] | None:
        """The cached (measurements, checkpoints, duration_s) under ``key``.

        ``None`` exactly on a miss. The stored configuration values and
        seed are re-validated against the requesting trial, so a digest
        collision can never replay a different configuration.
        """
        entry = self._memory.get(key)
        if entry is None and self.path is not None:
            entry = self._read_disk(key)
            if entry is not None:
                self._memory[key] = entry
        if entry is None or not _guards(entry, config, seed):
            self.misses += 1
            return None
        self.hits += 1
        checkpoints = [(int(s), float(v)) for s, v in entry["checkpoints"]]
        return dict(entry["measurements"]), checkpoints, float(entry["duration_s"])

    # ---------------------------------------------------------------- store
    def store(self, key: str, outcome: Any, config: Any, seed: int) -> bool:
        """Record one completed trial outcome under its content address.

        Returns False, storing nothing, for any other status and for
        measurements JSON cannot hold. A valid entry for the same key,
        configuration and seed already on disk (another writer sharing
        the directory stored it) is kept as it is, not written again.
        """
        if outcome.status != "completed":
            return False
        entry = {
            "format_version": FORMAT_VERSION,
            "key": key,
            "code": self.code_tag,
            "seed": int(seed),
            "config": dict(config.key()),
            "measurements": dict(outcome.measurements),
            "checkpoints": [[int(s), float(v)] for s, v in outcome.checkpoints],
            "duration_s": float(outcome.duration_s),
        }
        try:
            blob = json.dumps(entry)
        except (TypeError, ValueError):
            return False
        stored = self._read_disk(key)
        if stored is not None and _guards(stored, config, seed):
            self._memory[key] = stored
            return True
        self._memory[key] = entry
        if self.path is not None:
            target = os.path.join(self.path, key)
            atomic_write(f"{target}.json", blob)
            with contextlib.suppress(FileNotFoundError):
                os.remove(f"{target}.outcome.json")
        return True

    # ------------------------------------------------------------ internals
    def _read_disk(self, key: str) -> dict[str, Any] | None:
        if self.path is None:
            return None
        target = os.path.join(self.path, f"{key}.json")
        try:
            with open(target, encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format_version") != FORMAT_VERSION
            or entry.get("key") != key
            or entry.get("code") != self.code_tag
        ):
            return None
        return entry

    def __len__(self) -> int:
        """Entries reachable without touching the disk store."""
        return len(self._memory)

    def __repr__(self) -> str:
        where = self.path or "memory"
        return f"TrialCache({where!r}, code={self.code_tag}, hits={self.hits})"
